package xdm

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
)

// dec is a decimal literal for tests.
func dec(s string) Decimal {
	d, err := ParseDecimal(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FuzzDecimalArith holds the decimal kernel to math/big.Rat, a reference
// that is not the engine. Two decimals (each a coefficient, the product of
// two int64s so that it reaches past 64 bits, and a scale) go
// through Arith's six operators, Negate, the rounding family, comparison with
// each other and with an integer, the canonical string, the promotion to
// xs:double and the casts to xs:integer; a double goes through the cast to
// xs:decimal. Each result must be the exact value rounded half to even where
// the kernel rounds (a product to 18 places, a quotient to 18 significant
// digits, a double's shortest digits to 18 places), or FOAR0002 (FOCA0001 for
// the cast) when that value's coefficient reaches 2¹²⁷.
func FuzzDecimalArith(f *testing.F) {
	coefs := []int64{0, 1, -1, 5, -15, 3, math.MaxInt64, math.MinInt64, 1e18, -999999999999999999}
	for i, x := range coefs {
		for j, y := range coefs {
			f.Add(x, int64(1), uint8(i*7), y, coefs[(i+j)%len(coefs)], uint8(j*5), float64(x)/1e9)
		}
	}
	f.Add(int64(1), int64(1), uint8(0), int64(3), int64(1), uint8(0), 0.1)
	f.Add(int64(25), int64(1), uint8(1), int64(-10), int64(1), uint8(1), math.Inf(-1))
	f.Add(int64(math.MinInt64), int64(math.MinInt64), uint8(0), int64(-1), int64(1), uint8(0), 1e38)
	f.Fuzz(func(t *testing.T, xc, xm int64, xs uint8, yc, ym int64, ys uint8, d float64) {
		x, rx := fuzzDecimal(xc, xm, xs)
		y, ry := fuzzDecimal(yc, ym, ys)
		for _, op := range []ArithOp{OpAdd, OpSub, OpMul, OpDiv, OpIDiv, OpMod} {
			what := fmt.Sprintf("%s %s %s", x.StringValue(), op, y.StringValue())
			got, err := Arith(x, y, op)
			if op >= OpDiv && ry.Sign() == 0 {
				if !hasCode(err, "FOAR0001") {
					t.Fatalf("%s = %v, %v; want FOAR0001", what, got, err)
				}
				continue
			}
			want := new(big.Rat)
			places := maxScale
			switch op {
			case OpAdd:
				want.Add(rx, ry)
			case OpSub:
				want.Sub(rx, ry)
			case OpMul:
				want.Mul(rx, ry)
			case OpDiv:
				want.Quo(rx, ry)
				if w := truncRat(want); w.Sign() != 0 {
					places = max(maxScale-len(w.Abs(w).Text(10)), 0)
				}
			case OpIDiv:
				checkExact(t, what, got, err, truncRat(new(big.Rat).Quo(rx, ry)), "FOAR0002")
				continue
			case OpMod:
				q := new(big.Rat).SetInt(truncRat(new(big.Rat).Quo(rx, ry)))
				want.Sub(rx, q.Mul(q, ry))
			}
			checkDecimal(t, what, got, err, roundRat(want, places), "FOAR0002")
		}
		got, err := Negate(x)
		checkDecimal(t, "-"+x.StringValue(), got, err, new(big.Rat).Neg(rx), "FOAR0002")
		got, err = Round(x, RoundAbs)
		checkDecimal(t, "abs "+x.StringValue(), got, err, new(big.Rat).Abs(rx), "FOAR0002")
		for _, r := range []Rounding{RoundCeiling, RoundFloor, RoundHalfUp, RoundHalfEven} {
			got, err := Round(x, r)
			checkDecimal(t, r.String()+" "+x.StringValue(), got, err, roundWhole(rx, r), "")
		}

		// Comparison is exact, against a decimal and against an integer.
		for _, other := range []struct {
			it  Item
			rat *big.Rat
		}{{y, ry}, {Integer(yc), new(big.Rat).SetInt64(yc)}} {
			for _, op := range []CompareOp{OpEq, OpLt, OpGt} {
				got, err := CompareValue(x, other.it, op)
				if want := opHolds(op, rx.Cmp(other.rat)); err != nil || got != want {
					t.Fatalf("%s %s %s = %v, %v; want %v", x.StringValue(), op, other.it.StringValue(), got, err, want)
				}
			}
		}

		// Against a double, the decimal is promoted to the nearest double.
		if fx, _ := rx.Float64(); !math.IsNaN(d) {
			got, err := CompareValue(x, Double(d), OpLt)
			if err != nil || got != (fx < d) {
				t.Fatalf("%s lt %v = %v, %v", x.StringValue(), d, got, err)
			}
		}

		// The canonical string re-parses to the same value and has no
		// exponent; the promotion to double is the nearest double; the cast
		// to integer truncates.
		s := x.StringValue()
		if back, err := ParseDecimal(s); err != nil || back != x || strings.ContainsAny(s, "eE") || s == "-0" {
			t.Fatalf("%s re-parses as %v, %v", s, back, err)
		}
		if want, _ := rx.Float64(); NumberOf(x) != want {
			t.Fatalf("double of %s = %v, want %v", s, NumberOf(x), want)
		}
		got, err = CastTo(x, IntegerType)
		checkExact(t, "xs:integer("+s+")", got, err, truncRat(rx), "FOCA0003")

		// A double casts through its shortest round-tripping digits.
		if math.IsNaN(d) || math.IsInf(d, 0) {
			if got, err := decimalOfDouble(d); !hasCode(err, "FOCA0002") {
				t.Fatalf("xs:decimal(%v) = %v, %v; want FOCA0002", d, got, err)
			}
			return
		}
		shortest, _ := new(big.Rat).SetString(fmt.Sprint(d))
		decimalType, _ := TypeNamed("xs:decimal")
		got, err = CastTo(Double(d), decimalType)
		checkDecimal(t, fmt.Sprintf("xs:decimal(%v)", d), got, err, roundRat(shortest, maxScale), "FOCA0001")
	})
}

// fuzzDecimal makes a decimal of the coefficient c×m and a fuzzed scale, and
// its exact value.
func fuzzDecimal(c, m int64, s uint8) (Decimal, *big.Rat) {
	s %= maxScale + 1
	coef := new(big.Int).Mul(big.NewInt(c), big.NewInt(m))
	d, ok := decimalOf(coef, big.NewInt(1), int(s))
	if !ok {
		panic("a product of two int64s is a coefficient")
	}
	return d, new(big.Rat).SetFrac(coef, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(s)), nil))
}

// truncRat is r's whole part, rounded toward zero.
func truncRat(r *big.Rat) *big.Int {
	return new(big.Int).Quo(r.Num(), r.Denom())
}

// roundRat rounds r half to even at the given number of places.
func roundRat(r *big.Rat, places int) *big.Rat {
	unit := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(places)), nil)
	scaled := new(big.Rat).Mul(r, new(big.Rat).SetInt(unit))
	q, m := new(big.Int).DivMod(scaled.Num(), scaled.Denom(), new(big.Int)) // q is the floor
	if c := m.Lsh(m, 1).Cmp(scaled.Denom()); c > 0 || c == 0 && q.Bit(0) == 1 {
		q.Add(q, big.NewInt(1))
	}
	return new(big.Rat).SetFrac(q, unit)
}

// roundWhole is the reference for the whole-number members of the rounding
// family.
func roundWhole(r *big.Rat, mode Rounding) *big.Rat {
	floor := new(big.Int).Div(r.Num(), r.Denom()) // Euclidean: the floor, as the denominator is positive
	frac := new(big.Rat).Sub(r, new(big.Rat).SetInt(floor))
	up := false
	switch mode {
	case RoundCeiling:
		up = frac.Sign() > 0
	case RoundHalfUp:
		up = frac.Cmp(big.NewRat(1, 2)) >= 0
	case RoundHalfEven:
		return roundRat(r, 0)
	}
	if up {
		floor.Add(floor, big.NewInt(1))
	}
	return new(big.Rat).SetInt(floor)
}

// checkDecimal requires the decimal want when its coefficient at its least
// scale is under 2¹²⁷ in magnitude, and the error code when it is not.
func checkDecimal(t *testing.T, what string, got Item, err error, want *big.Rat, code string) {
	t.Helper()
	coef := new(big.Rat).Set(want)
	for !coef.IsInt() {
		coef.Mul(coef, big.NewRat(10, 1))
	}
	if coef.Num().BitLen() > 127 {
		if !hasCode(err, code) {
			t.Fatalf("%s = %v, %v; want %s (exact value %s)", what, got, err, code, want.FloatString(20))
		}
		return
	}
	d, ok := got.(Decimal)
	if err != nil || !ok {
		t.Fatalf("%s = %v, %v; want %s", what, got, err, want.FloatString(20))
	}
	if r, _ := new(big.Rat).SetString(d.StringValue()); r.Cmp(want) != 0 {
		t.Fatalf("%s = %s; want %s", what, d.StringValue(), want.FloatString(20))
	}
	if back, err := ParseDecimal(d.StringValue()); err != nil || back != d {
		t.Fatalf("%s = %#v is not normalized", what, d)
	}
}
