package xdm

import (
	"math"
	"math/big"
	"strconv"
	"strings"
)

// Decimal is an xs:decimal atomic value, held exactly: the value is c ×
// 10^-scale, with a 128-bit two's-complement coefficient c = hi·2⁶⁴ + lo
// (|c| < 2¹²⁷, 38 digits) and a scale from 0 to 18, which meets XML Schema's
// minimum of 18 digits. Every Decimal is formed in this file, by decimalOf,
// and kept normalized — no trailing zero after the point, zero at scale 0 —
// so two equal decimals are equal Go values. The fields are unexported: no
// package outside xdm sees the representation. A decimal leaves it only
// through its canonical string (and Literal, its spelling in a query) and
// through NumberOf, its promotion to xs:double.
type Decimal struct {
	hi    int64
	lo    uint64
	scale uint8
}

// maxScale is the most digits a Decimal keeps after the point.
const maxScale = 18

var (
	bigOne    = big.NewInt(1)
	bigMask64 = new(big.Int).SetUint64(math.MaxUint64)
)

func bigPow10(n int) *big.Int {
	return new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(n)), nil)
}

// coef returns the coefficient.
func (d Decimal) coef() *big.Int {
	c := big.NewInt(d.hi)
	return c.Lsh(c, 64).Add(c, new(big.Int).SetUint64(d.lo))
}

// at returns the coefficient of d at scale s >= d.scale.
func (d Decimal) at(s int) *big.Int {
	c := d.coef()
	return c.Mul(c, bigPow10(s-int(d.scale)))
}

// decimalOf is the decimal kernel: the one place a computed value becomes a
// Decimal. num/den (den > 0) is the value's coefficient at scale places (at
// most 18): it is rounded half to even to a whole number, and the trailing
// zeros are dropped. ok is false when the coefficient then reaches 2¹²⁷ in
// magnitude, which each caller reports under its own code.
func decimalOf(num, den *big.Int, scale int) (d Decimal, ok bool) {
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	// QuoRem truncates toward zero: step away from zero past the half, or
	// at the half onto the even neighbour.
	if half := r.Abs(r).Lsh(r, 1).Cmp(den); half > 0 || half == 0 && q.Bit(0) == 1 {
		q.Add(q, big.NewInt(int64(num.Sign())))
	}
	ten, digit := big.NewInt(10), new(big.Int)
	for ; scale > 0; scale-- {
		quo, _ := new(big.Int).QuoRem(q, ten, digit)
		if digit.Sign() != 0 {
			break
		}
		q = quo
	}
	if q.BitLen() > 127 {
		return Decimal{}, false
	}
	lo := new(big.Int).And(q, bigMask64).Uint64() // the low word, in two's complement
	return Decimal{q.Rsh(q, 64).Int64(), lo, uint8(scale)}, true
}

// decimalOfInt is an integer as a decimal.
func decimalOfInt(i int64) Decimal { return Decimal{hi: i >> 63, lo: uint64(i)} }

// StringValue implements Item: the canonical form, with no exponent, no
// trailing zero after the point and no negative zero ("0.000001", "-1.5",
// "3").
func (d Decimal) StringValue() string {
	c, neg := d.coef(), d.hi < 0
	digits := c.Abs(c).Text(10)
	if s := int(d.scale); s > 0 {
		if len(digits) <= s {
			digits = strings.Repeat("0", s-len(digits)+1) + digits
		}
		digits = digits[:len(digits)-s] + "." + digits[len(digits)-s:]
	}
	if neg {
		return "-" + digits
	}
	return digits
}

// TypeName implements Item.
func (Decimal) TypeName() string { return "xs:decimal" }

// Literal spells d as an XQuery decimal literal: the canonical form, with a
// point even when d is whole ("2.0"), so that it lexes as a decimal again.
func (d Decimal) Literal() string {
	if d.scale == 0 {
		return d.StringValue() + ".0"
	}
	return d.StringValue()
}

// ParseDecimal reads the xs:decimal lexical form — an optional sign, digits
// and at most one point, with no exponent and no surrounding space — exactly.
// A bad form raises FORG0001, a whole part past the coefficient's 38 digits
// FOCA0001, and a value the coefficient holds only with more than 18 digits
// after the point, or more digits in all than it has, FOCA0006. The parser's
// decimal literals and every cast from a string read decimals here.
func ParseDecimal(s string) (Decimal, error) {
	body, neg := s, false
	if body != "" && (body[0] == '+' || body[0] == '-') {
		body, neg = body[1:], body[0] == '-'
	}
	whole, frac, _ := strings.Cut(body, ".")
	if whole+frac == "" || !allDigits(whole) || !allDigits(frac) {
		return Decimal{}, Errf("FORG0001", "cannot cast %q to xs:decimal", s)
	}
	frac = strings.TrimRight(frac, "0")
	if w, _ := new(big.Int).SetString("0"+whole, 10); w.BitLen() > 127 {
		return Decimal{}, Errf("FOCA0001", "%s is outside the range of xs:decimal", s)
	}
	c, _ := new(big.Int).SetString("0"+whole+frac, 10)
	if neg {
		c.Neg(c)
	}
	if d, ok := decimalOf(c, bigOne, len(frac)); ok && len(frac) <= maxScale {
		return d, nil
	}
	return Decimal{}, Errf("FOCA0006", "%s has more digits than xs:decimal keeps", s)
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// decimalArith applies an operator to two decimals. + - idiv and mod are
// exact, and so is * up to 18 places, where a longer product rounds half to
// even. div is exact when the quotient fits in 18 significant digits, and
// otherwise rounds half to even to 18 significant digits (never more than 18
// places, never fewer than the whole part's). A result whose coefficient
// leaves the representation raises FOAR0002.
func decimalArith(x, y Decimal, op ArithOp) (Item, error) {
	s := int(max(x.scale, y.scale))
	a, b := x.at(s), y.at(s)
	if op >= OpDiv && b.Sign() == 0 { // div, idiv, mod
		return nil, Errf("FOAR0001", "division by zero")
	}
	var (
		d  Decimal
		ok bool
	)
	switch op {
	case OpAdd:
		d, ok = decimalOf(a.Add(a, b), bigOne, s)
	case OpSub:
		d, ok = decimalOf(a.Sub(a, b), bigOne, s)
	case OpMul:
		prod, ps := x.coef(), int(x.scale+y.scale)
		d, ok = decimalOf(prod.Mul(prod, y.coef()), bigPow10(max(ps-maxScale, 0)), min(ps, maxScale))
	case OpDiv:
		if b.Sign() < 0 {
			a.Neg(a)
			b.Neg(b)
		}
		// 18 significant digits: as many places as the whole part leaves.
		whole := 0
		if w := new(big.Int).Quo(a, b); w.Sign() != 0 {
			whole = len(w.Abs(w).Text(10))
		}
		places := max(maxScale-whole, 0)
		d, ok = decimalOf(a.Mul(a, bigPow10(places)), b, places)
	case OpIDiv:
		if q := a.Quo(a, b); q.IsInt64() {
			return Integer(q.Int64()), nil
		}
		return nil, Errf("FOAR0002", "idiv overflow")
	case OpMod:
		d, ok = decimalOf(a.Rem(a, b), bigOne, s)
	}
	if !ok {
		return nil, Errf("FOAR0002", "xs:decimal overflow in %s", op)
	}
	return d, nil
}

// decimalOfDouble casts a double to xs:decimal. The double's shortest
// round-tripping digits are taken as the value and rounded half to even to
// 18 places, so xs:decimal(0.1e0) is 0.1 (F&O asks for the decimal nearest
// the double's exact binary value, 0.1000000000000000055511…, which at 18
// places is 0.100000000000000006). NaN and the infinities raise FOCA0002, a
// value outside the representation FOCA0001.
func decimalOfDouble(f float64) (Decimal, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Decimal{}, Errf("FOCA0002", "cannot cast %s to xs:decimal", Double(f).StringValue())
	}
	mant, exp, _ := strings.Cut(strconv.FormatFloat(math.Abs(f), 'e', -1, 64), "e")
	whole, frac, _ := strings.Cut(mant, ".")
	e, _ := strconv.Atoi(exp)
	// whole+frac × 10^e is the coefficient at 18 places.
	e += maxScale - len(frac)
	num, _ := new(big.Int).SetString(whole+frac, 10)
	if f < 0 {
		num.Neg(num)
	}
	den := bigOne
	if e >= 0 {
		num.Mul(num, bigPow10(e))
	} else {
		den = bigPow10(-e)
	}
	if d, ok := decimalOf(num, den, maxScale); ok {
		return d, nil
	}
	return Decimal{}, Errf("FOCA0001", "%s is outside the range of xs:decimal", Double(f).StringValue())
}

// float is the decimal's promotion to xs:double: the nearest double, which
// ParseFloat finds from the exact digits.
func (d Decimal) float() float64 {
	f, _ := strconv.ParseFloat(d.StringValue(), 64)
	return f
}

// trunc is the decimal's whole part, as xs:integer(d) takes it; ok is false
// when that lies outside int64.
func (d Decimal) trunc() (Integer, bool) {
	w := d.coef()
	w.Quo(w, bigPow10(int(d.scale)))
	return Integer(w.Int64()), w.IsInt64()
}

// compareDecimal orders two decimals exactly.
func compareDecimal(x, y Decimal) int {
	s := int(max(x.scale, y.scale))
	return x.at(s).Cmp(y.at(s))
}

// asDecimal reads an xs:integer or xs:decimal as a Decimal. ok is false for
// any other item, an xs:double included.
func asDecimal(it Item) (Decimal, bool) {
	switch v := it.(type) {
	case Integer:
		return decimalOfInt(int64(v)), true
	case Decimal:
		return v, true
	}
	return Decimal{}, false
}

// neg is -d, which the symmetric range always holds.
func (d Decimal) neg() Decimal {
	c := d.coef()
	d, _ = decimalOf(c.Neg(c), bigOne, int(d.scale))
	return d
}

// roundDecimal applies a member of the rounding family to a decimal. Every
// result but abs's is whole.
func roundDecimal(d Decimal, r Rounding) Decimal {
	if r == RoundAbs {
		if d.hi < 0 {
			return d.neg()
		}
		return d
	}
	unit := bigPow10(int(d.scale))
	q, rem := new(big.Int).QuoRem(d.coef(), unit, new(big.Int)) // rem has the sign of d
	half := new(big.Int).Lsh(rem, 1).CmpAbs(unit)
	var away bool // step from q one away from zero
	switch r {
	case RoundCeiling:
		away = rem.Sign() > 0
	case RoundFloor:
		away = rem.Sign() < 0
	case RoundHalfUp:
		away = half > 0 || half == 0 && rem.Sign() > 0
	case RoundHalfEven:
		away = half > 0 || half == 0 && q.Bit(0) == 1
	}
	if away {
		q.Add(q, big.NewInt(int64(rem.Sign())))
	}
	d, _ = decimalOf(q, bigOne, 0)
	return d
}
