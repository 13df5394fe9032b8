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
		case OpAdd:
			return Integer(x + y), nil
		case OpSub:
			return Integer(x - y), nil
		case OpMul:
			return Integer(x * y), nil
		case OpDiv:
			if y == 0 {
				return nil, Errf("FOAR0001", "division by zero")
			}
			if x%y == 0 {
				return Decimal(x / y), nil
			}
			return Decimal(float64(x) / float64(y)), nil
		case OpIDiv:
			if y == 0 {
				return nil, Errf("FOAR0001", "integer division by zero")
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
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) {
			return nil, Errf("FOAR0002", "idiv overflow")
		}
		return Integer(int64(math.Trunc(x / y))), nil
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
		return Integer(-v), nil
	case Decimal:
		return Decimal(-v), nil
	case Double:
		return Double(-v), nil
	}
	return nil, Errf("XPTY0004", "unary minus on %s", a.TypeName())
}

// RangeTooWide reports whether lo to hi (lo <= hi) holds more than
// 50 000 001 integers, which a range expression refuses with FOAR0002
// before it allocates anything. The width is taken in uint64, where hi-lo
// cannot wrap as it does in int64.
func RangeTooWide(lo, hi int64) bool {
	return uint64(hi)-uint64(lo) > 50_000_000
}
