package xdm

import (
	"math"
	"strings"

	"lopsided/internal/xmltree"
)

// CompareOp is a comparison operator shared by value and general comparisons.
type CompareOp int

// The six comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the value-comparison spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "eq"
	case OpNe:
		return "ne"
	case OpLt:
		return "lt"
	case OpLe:
		return "le"
	case OpGt:
		return "gt"
	case OpGe:
		return "ge"
	}
	return "?"
}

func opHolds(op CompareOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// coerceUntyped converts untyped operands for comparison: untyped vs numeric
// compares numerically, untyped vs anything else compares as strings, and
// two untyped values compare as strings. This is the general-comparison
// conversion rule; the engine runs in untyped mode so value comparisons are
// given the same forgiving treatment (documented divergence from the strict
// draft, matching how the paper's program actually behaved on attribute
// values converted "into a string").
func coerceUntyped(a, b Item) (Item, Item) {
	if ua, ok := a.(Untyped); ok {
		if IsNumeric(b) {
			a = Double(parseDouble(string(ua)))
		} else if _, bu := b.(Untyped); bu {
			a, b = String(ua), String(b.(Untyped))
			return a, b
		} else if _, bb := b.(Boolean); bb {
			a = Boolean(strings.TrimSpace(string(ua)) == "true" || strings.TrimSpace(string(ua)) == "1")
		} else {
			a = String(ua)
		}
	}
	if ub, ok := b.(Untyped); ok {
		if IsNumeric(a) {
			b = Double(parseDouble(string(ub)))
		} else if _, ab := a.(Boolean); ab {
			b = Boolean(strings.TrimSpace(string(ub)) == "true" || strings.TrimSpace(string(ub)) == "1")
		} else {
			b = String(ub)
		}
	}
	return a, b
}

// CompareValue applies a value comparison (the eq family: singleton
// operands) to two atomic items. It returns an XPTY0004 error for
// incomparable types.
//
// Two integers compare first, as position() against a bound does. Two
// operands that are each xs:string or xs:untypedAtomic compare as strings,
// which is what coerceUntyped would make of them; reading them straight
// skips its re-boxing, one allocation per operand it converts.
func CompareValue(a, b Item, op CompareOp) (bool, error) {
	if ai, ok := a.(Integer); ok {
		if bi, ok := b.(Integer); ok {
			return opHolds(op, compareInt(int64(ai), int64(bi))), nil
		}
	}
	if sa, ok := asString(a); ok {
		if sb, ok := asString(b); ok {
			return opHolds(op, strings.Compare(sa, sb)), nil
		}
	}
	a, b = coerceUntyped(a, b)
	// Numeric comparison.
	if IsNumeric(a) && IsNumeric(b) {
		// Integers and decimals compare exactly; a double promotes the other.
		if da, ok := asDecimal(a); ok {
			if db, ok := asDecimal(b); ok {
				return opHolds(op, compareDecimal(da, db)), nil
			}
		}
		fa, fb := NumberOf(a), NumberOf(b)
		if math.IsNaN(fa) || math.IsNaN(fb) {
			// NaN compares false to everything except ne.
			return op == OpNe, nil
		}
		return opHolds(op, compareFloat(fa, fb)), nil
	}
	sa, aStr := asString(a)
	sb, bStr := asString(b)
	if aStr && bStr {
		// An untyped operand against a non-string one: coerceUntyped made
		// it a string.
		return opHolds(op, strings.Compare(sa, sb)), nil
	}
	ba, aBool := a.(Boolean)
	bb, bBool := b.(Boolean)
	if aBool && bBool {
		return opHolds(op, compareBool(bool(ba), bool(bb))), nil
	}
	return false, Errf("XPTY0004", "cannot compare %s %s %s", a.TypeName(), op, b.TypeName())
}

// IsPosition reports whether a numeric predicate's value selects position
// pos: an integer by equality, a decimal exactly, a double after promotion.
func IsPosition(it Item, pos int) bool {
	if i, ok := it.(Integer); ok {
		return int64(i) == int64(pos)
	}
	ok, _ := CompareValue(it, Integer(pos), OpEq)
	return ok
}

func asString(it Item) (string, bool) {
	switch v := it.(type) {
	case String:
		return string(v), true
	case Untyped:
		return string(v), true
	}
	return "", false
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

// CompareGeneral applies a general comparison (=, !=, <, <=, >, >=) with
// XQuery's existential semantics: the result is true if the comparison holds
// for SOME pair of atomized items. This is the paper's syntactic quirk #4 —
// 1 = (1,2,3) is true, and so is (1,2,3) = 3, while 1 eq (1,2,3) is an error.
func CompareGeneral(a, b Sequence, op CompareOp) (bool, error) {
	aa, ab := Atomize(a), Atomize(b)
	for _, x := range aa {
		for _, y := range ab {
			ok, err := CompareValue(x, y, op)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// DeepEqual implements fn:deep-equal over two sequences: pairwise equal
// lengths, atomics equal by value (NaN equal to NaN, per spec), nodes equal
// by structure with attribute order ignored and comments/PIs skipped in
// element content.
func DeepEqual(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !deepEqualItem(a[i], b[i]) {
			return false
		}
	}
	return true
}

func deepEqualItem(a, b Item) bool {
	na, aIsNode := IsNode(a)
	nb, bIsNode := IsNode(b)
	if aIsNode != bIsNode {
		return false
	}
	if aIsNode {
		return deepEqualNode(na, nb)
	}
	return EqualAtoms(a, b)
}

// EqualAtoms is the equality fn:distinct-values and fn:deep-equal apply to
// atomic values: eq, except that NaN equals NaN and an incomparable pair is
// unequal.
func EqualAtoms(a, b Item) bool {
	if ok, err := CompareValue(a, b, OpEq); err == nil && ok {
		return true
	}
	fa, aDbl := a.(Double)
	fb, bDbl := b.(Double)
	return aDbl && bDbl && fa != fa && fb != fb
}

func deepEqualNode(a, b *xmltree.Node) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case xmltree.TextNode, xmltree.CommentNode:
		return a.Data == b.Data
	case xmltree.AttributeNode:
		return a.Name == b.Name && a.Data == b.Data
	case xmltree.PINode:
		return a.Name == b.Name && a.Data == b.Data
	case xmltree.ElementNode:
		if a.Name != b.Name || len(a.Attrs()) != len(b.Attrs()) {
			return false
		}
		for _, aa := range a.Attrs() {
			v, ok := b.Attr(aa.Name)
			if !ok || v != aa.Data {
				return false
			}
		}
		fallthrough
	case xmltree.DocumentNode:
		ka := contentForDeepEqual(a)
		kb := contentForDeepEqual(b)
		if len(ka) != len(kb) {
			return false
		}
		for i := range ka {
			if !deepEqualNode(ka[i], kb[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func contentForDeepEqual(n *xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	for _, c := range n.Children() {
		switch c.Kind {
		case xmltree.CommentNode, xmltree.PINode:
			continue
		}
		out = append(out, c)
	}
	return out
}
