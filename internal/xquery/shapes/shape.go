// Package shapes implements static shape and cardinality inference over the
// optimized XQuery AST: a forward pass computing, per expression, a small
// lattice of facts — occurrence bounds, an atomic-type upper bound,
// node-free-ness, and totality (cannot raise) — in the spirit of the regular
// expression subtyping line of work the roadmap cites.
//
// The facts feed two consumers: compile-time XPTY0004/XPST0005 diagnostics
// with source spans, and EXPLAIN's per-node shape annotations. The optimizer
// does not read them, and no runtime check is skipped on the strength of a
// shape.
//
// Soundness invariant: a Shape describes the VALUE an expression produces on
// successful evaluation; Total additionally promises success. Occurrence and
// kind bounds therefore hold independently of totality — if the expression
// raises, no value flows and the bounds are vacuous. Resource-limit errors
// (the sandbox's LOPS* family) are exempt from totality everywhere: they can
// strike any expression, are uncatchable, and the differential harness never
// compares step budgets across shape configurations.
//
// The occurrence and kind lattices a Shape is built from are xdm.Occurrence
// and xdm.Kinds: they live beside the sequence types and items they abstract,
// so a declared type, a built-in's row (funclib.Func) and an inferred shape
// are stated in the same terms and nothing translates between them.
package shapes

import (
	"strings"

	"lopsided/internal/xdm"
)

// Shape is the full fact lattice for one expression.
type Shape struct {
	// Occ bounds the value's item count.
	Occ xdm.Occurrence
	// Atomic bounds the atomic types of the value's atomic items; nodes are
	// tracked by NodeFree, not here.
	Atomic xdm.Kinds
	// NodeFree reports the value can never contain nodes.
	NodeFree bool
	// Total reports evaluation cannot raise a non-limit error.
	Total bool
}

// Unknown is the uninformative top element.
var unknown = Shape{Occ: xdm.ZeroOrMore, Atomic: xdm.KAny}

// emptyShape describes a value known to be ().
func emptyShape(total bool) Shape {
	return Shape{Occ: xdm.Zero, Atomic: xdm.KNone, NodeFree: true, Total: total}
}

// one builds a total singleton atomic shape (the literal rule).
func one(a xdm.Kinds) Shape {
	return Shape{Occ: xdm.One, Atomic: a, NodeFree: true, Total: true}
}

// norm canonicalizes: a provably empty value holds no items of any kind.
func (s Shape) norm() Shape {
	if s.Occ == xdm.Zero {
		s.Atomic = xdm.KNone
		s.NodeFree = true
	}
	return s
}

// Join is the least upper bound of two alternative values (branches).
func Join(a, b Shape) Shape {
	return Shape{
		Occ:      a.Occ.Join(b.Occ),
		Atomic:   a.Atomic | b.Atomic,
		NodeFree: a.NodeFree && b.NodeFree,
		Total:    a.Total && b.Total,
	}.norm()
}

// Concat combines two values evaluated in sequence (the comma rule).
func Concat(a, b Shape) Shape {
	return Shape{
		Occ:      a.Occ.Concat(b.Occ),
		Atomic:   a.Atomic | b.Atomic,
		NodeFree: a.NodeFree && b.NodeFree,
		Total:    a.Total && b.Total,
	}.norm()
}

// atomizedKind bounds the atomic kinds after xdm.Atomize: atomics pass
// through; any node becomes xs:untypedAtomic.
func (s Shape) atomizedKind() xdm.Kinds {
	if s.NodeFree {
		return s.Atomic
	}
	return s.Atomic | xdm.KUntyped
}

// allNodes reports the value can contain only nodes (or be empty).
func (s Shape) allNodes() bool { return s.Atomic == xdm.KNone }

// ebvSafe reports xdm.EffectiveBool cannot raise on the value: FORG0006
// needs a multi-item sequence whose first item is not a node, so a bound of
// at most one item is safe for every kind, and an all-node value is safe at
// any length (node-first short-circuits to true).
func (s Shape) ebvSafe() bool { return s.Occ.Hi() <= 1 || s.allNodes() }

// bounded reports the value holds at most one item.
func (s Shape) bounded() bool { return s.Occ.Hi() <= 1 }

// String renders the shape for EXPLAIN annotations, e.g. {1 int nf tot},
// {* node}, {? any}.
func (s Shape) String() string {
	var b strings.Builder
	b.WriteByte('{')
	b.WriteString([...]string{"1", "?", "*", "+", "0"}[s.Occ])
	b.WriteByte(' ')
	switch {
	case s.Occ == xdm.Zero:
		b.WriteString("()")
	case s.Atomic == xdm.KNone:
		b.WriteString("node")
	case s.NodeFree:
		b.WriteString(s.Atomic.String())
	default:
		b.WriteString(s.Atomic.String())
		b.WriteString("|node")
	}
	if s.NodeFree && s.Occ != xdm.Zero && s.Atomic != xdm.KNone {
		b.WriteString(" nf")
	}
	if s.Total {
		b.WriteString(" tot")
	}
	b.WriteByte('}')
	return b.String()
}
