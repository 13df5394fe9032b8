package xdm

import (
	"math"
)

// ArithOp is an arithmetic operator.
type ArithOp int

// The six XQuery arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
)

// String returns the XQuery spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "div"
	case OpIDiv:
		return "idiv"
	case OpMod:
		return "mod"
	}
	return "?"
}

// Arith applies an arithmetic operator to two atomized singleton operands.
// Untyped operands convert to xs:double (the untyped-mode rule). Integer
// pairs stay integral except for div, which yields xs:decimal per the spec;
// integers and decimals compute in decimals (decimal.go), and a double
// operand makes the operation a double one. An empty operand yields the
// empty sequence (handled by the caller); this function requires both items
// present.
func Arith(a, b Item, op ArithOp) (Item, error) {
	if ua, ok := a.(Untyped); ok {
		a = Double(parseDouble(string(ua)))
	}
	if ub, ok := b.(Untyped); ok {
		b = Double(parseDouble(string(ub)))
	}
	if !IsNumeric(a) || !IsNumeric(b) {
		return nil, Errf("XPTY0004", "arithmetic operator %s on %s and %s", op, a.TypeName(), b.TypeName())
	}
	ai, aInt := a.(Integer)
	bi, bInt := b.(Integer)
	if aInt && bInt && op != OpDiv {
		x, y := int64(ai), int64(bi)
		switch op {
		case OpAdd, OpSub, OpMul:
			return checkedInt(x, y, op)
		case OpIDiv:
			if y == 0 {
				return nil, Errf("FOAR0001", "integer division by zero")
			}
			if y == -1 { // the one quotient outside int64 is MinInt64 idiv -1
				return checkedInt(0, x, OpSub)
			}
			return Integer(x / y), nil
		case OpMod:
			if y == 0 {
				return nil, Errf("FOAR0001", "modulo by zero")
			}
			return Integer(x % y), nil
		}
	}
	if da, ok := asDecimal(a); ok {
		if db, ok := asDecimal(b); ok {
			return decimalArith(da, db, op)
		}
	}
	x, y := NumberOf(a), NumberOf(b)
	switch op {
	case OpAdd:
		return Double(x + y), nil
	case OpSub:
		return Double(x - y), nil
	case OpMul:
		return Double(x * y), nil
	case OpDiv:
		return Double(x / y), nil
	case OpIDiv:
		if y == 0 {
			return nil, Errf("FOAR0001", "integer division by zero")
		}
		if q, ok := truncInt(x / y); ok {
			return q, nil
		}
		return nil, Errf("FOAR0002", "idiv overflow")
	}
	return Double(math.Mod(x, y)), nil
}

// Negate applies unary minus to an atomized singleton operand.
func Negate(a Item) (Item, error) {
	if ua, ok := a.(Untyped); ok {
		a = Double(parseDouble(string(ua)))
	}
	switch v := a.(type) {
	case Integer:
		return checkedInt(0, int64(v), OpSub)
	case Decimal:
		return v.neg(), nil
	case Double:
		return Double(-v), nil
	}
	return nil, Errf("XPTY0004", "unary minus on %s", a.TypeName())
}

// Rounding names a member of the rounding family of functions.
type Rounding int

// The rounding family: fn:abs, fn:ceiling, fn:floor, fn:round (a half
// rounds toward positive infinity) and fn:round-half-to-even.
const (
	RoundAbs Rounding = iota
	RoundCeiling
	RoundFloor
	RoundHalfUp
	RoundHalfEven
)

// String returns the function's name.
func (r Rounding) String() string {
	return [...]string{"abs", "ceiling", "floor", "round", "round-half-to-even"}[r]
}

// Round applies a member of the rounding family to an atomized item. An
// integer is whole already (abs negates it through the integer kernel), a
// decimal rounds in decimals, and a double in doubles; an untyped value
// converts to xs:double first, as a function argument does. Any other item
// is XPTY0004.
func Round(it Item, r Rounding) (Item, error) {
	if u, ok := it.(Untyped); ok {
		it = Double(parseDouble(string(u)))
	}
	switch v := it.(type) {
	case Integer:
		if r == RoundAbs && v < 0 {
			return Negate(v)
		}
		return v, nil
	case Decimal:
		return roundDecimal(v, r), nil
	case Double:
		f := float64(v)
		switch r {
		case RoundAbs:
			f = math.Abs(f)
		case RoundCeiling:
			f = math.Ceil(f)
		case RoundFloor:
			f = math.Floor(f)
		case RoundHalfUp:
			f = RoundDouble(f)
		case RoundHalfEven:
			f = math.RoundToEven(f)
		}
		return Double(f), nil
	}
	return nil, Errf("XPTY0004", "%s of %s", r, it.TypeName())
}

// RoundDouble is XPath's round on a double: the nearest whole number, a half
// rounding toward positive infinity. NaN, the infinities and the zeros come
// back as they are, and a value from -0.5 up to zero rounds to negative zero.
// f - floor(f) is exact for every double, so no half is misjudged the way
// floor(f + 0.5) misjudges 0.49999999999999994 and 2^52 + 1.
func RoundDouble(f float64) float64 {
	t := math.Floor(f)
	if f-t >= 0.5 {
		t++
	}
	if t == 0 && f < 0 {
		return math.Copysign(0, -1)
	}
	return t
}

// checkedInt is the integer kernel: the one place an int64 sum, difference
// or product becomes an Integer (negation is 0 - v). A result outside int64
// raises FOAR0002 instead of wrapping.
func checkedInt(x, y int64, op ArithOp) (Item, error) {
	r, over := x+y, false
	switch op {
	case OpAdd:
		over = (x^r)&(y^r) < 0 // both operands differ in sign from the sum
	case OpSub:
		r = x - y
		over = (x^y)&(x^r) < 0
	case OpMul:
		r = x * y
		over = x != 0 && (r/x != y || x == -1 && y == math.MinInt64)
	}
	if over {
		return nil, Errf("FOAR0002", "integer overflow")
	}
	return Integer(r), nil
}

// truncInt is the one truncation of a double to an Integer. ok is false for
// NaN, an infinity and a value outside int64 (the Integer is then
// meaningless): each caller raises its own code for that.
func truncInt(f float64) (Integer, bool) {
	t := math.Trunc(f)
	return Integer(t), t >= -1<<63 && t < 1<<63 // NaN fails both
}

// RangeTooWide reports whether lo to hi (lo <= hi) holds more than
// 50 000 001 integers, which a range expression refuses with FOAR0002
// before it allocates anything. The width is taken in uint64, where hi-lo
// cannot wrap as it does in int64.
func RangeTooWide(lo, hi int64) bool {
	return uint64(hi)-uint64(lo) > 50_000_000
}
