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
// pairs stay integral except for div, which yields xs:decimal per the spec.
// An empty operand yields the empty sequence (handled by the caller); this
// function requires both items present.
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
	if aInt && bInt {
		x, y := int64(ai), int64(bi)
		switch op {
		case OpAdd, OpSub, OpMul:
			return checkedInt(x, y, op)
		case OpDiv:
			if y == 0 {
				return nil, Errf("FOAR0001", "division by zero")
			}
			if x%y == 0 && y != -1 { // MinInt64 / -1 would wrap
				return Decimal(x / y), nil
			}
			return Decimal(float64(x) / float64(y)), nil
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
	// Promote to double (decimals included; the subset backs them with
	// float64, so decimal-typed results re-wrap below).
	x, y := NumberOf(a), NumberOf(b)
	isDouble := isDoubleTyped(a) || isDoubleTyped(b)
	var f float64
	switch op {
	case OpAdd:
		f = x + y
	case OpSub:
		f = x - y
	case OpMul:
		f = x * y
	case OpDiv:
		if y == 0 && !isDouble {
			return nil, Errf("FOAR0001", "division by zero")
		}
		f = x / y
	case OpIDiv:
		if y == 0 {
			return nil, Errf("FOAR0001", "integer division by zero")
		}
		if q, ok := truncInt(x / y); ok {
			return q, nil
		}
		return nil, Errf("FOAR0002", "idiv overflow")
	case OpMod:
		if y == 0 && !isDouble {
			return nil, Errf("FOAR0001", "modulo by zero")
		}
		f = math.Mod(x, y)
	}
	if isDouble {
		return Double(f), nil
	}
	return Decimal(f), nil
}

func isDoubleTyped(it Item) bool {
	_, ok := it.(Double)
	return ok
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
		return Decimal(-v), nil
	case Double:
		return Double(-v), nil
	}
	return nil, Errf("XPTY0004", "unary minus on %s", a.TypeName())
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
