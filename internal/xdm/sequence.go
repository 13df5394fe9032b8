package xdm

import (
	"strings"

	"lopsided/internal/xmltree"
)

// Sequence is a flat, ordered sequence of items. The zero value is the empty
// sequence. Because Item has no sequence implementation, sequences of
// sequences are unrepresentable: combining sequences always concatenates,
// which is precisely XQuery's flattening rule — (1,(2,3,4),(),(5,((6,7))))
// is (1,2,3,4,5,6,7).
type Sequence []Item

// Empty is the empty sequence, ().
var Empty = Sequence{}

// Of builds a sequence from items.
func Of(items ...Item) Sequence { return Sequence(items) }

// Singleton wraps one item as a sequence. In XQuery there is no distinction
// between an item and the singleton sequence containing it.
func Singleton(it Item) Sequence { return Sequence{it} }

// Shared boolean singletons: comparisons and the boolean built-ins are the
// hottest sequence constructors, and the values are immutable.
var (
	seqTrue  = Sequence{Boolean(true)}
	seqFalse = Sequence{Boolean(false)}
)

// BoolSeq returns the singleton sequence holding b without allocating. The
// result is shared: callers must not write through it.
func BoolSeq(b bool) Sequence {
	if b {
		return seqTrue
	}
	return seqFalse
}

// Concat concatenates sequences. This is the XQuery comma operator: any
// internal sequence structure is washed out.
func Concat(seqs ...Sequence) Sequence {
	n := 0
	for _, s := range seqs {
		n += len(s)
	}
	if n == 0 {
		return Empty
	}
	out := make(Sequence, 0, n)
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

// IsEmpty reports whether the sequence is ().
func (s Sequence) IsEmpty() bool { return len(s) == 0 }

// One returns the sequence's single item. It returns an XPTY0004 error for
// empty or multi-item sequences; callers implement the `eq`-family operators
// and singleton-expecting functions with it.
func (s Sequence) One() (Item, error) {
	if len(s) != 1 {
		return nil, Errf("XPTY0004", "expected a single item, got a sequence of %d", len(s))
	}
	return s[0], nil
}

// AtMostOne returns the single item or nil for empty; errors on length > 1.
func (s Sequence) AtMostOne() (Item, error) {
	switch len(s) {
	case 0:
		return nil, nil
	case 1:
		return s[0], nil
	default:
		return nil, Errf("XPTY0004", "expected at most one item, got %d", len(s))
	}
}

// StringJoin returns the space-joined string values of all items, the
// content form used when a sequence lands in element or attribute content.
func (s Sequence) StringJoin() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.StringValue()
	}
	return strings.Join(parts, " ")
}

// Nodes returns the nodes of a sequence, erroring (XPTY0019) if any item is
// not a node; path steps require node sequences.
func (s Sequence) Nodes() ([]*xmltree.Node, error) {
	out := make([]*xmltree.Node, 0, len(s))
	for _, it := range s {
		n, ok := IsNode(it)
		if !ok {
			return nil, Errf("XPTY0019", "path step applied to non-node item %s", it.TypeName())
		}
		out = append(out, n)
	}
	return out, nil
}

// FromNodes wraps nodes as a sequence.
func FromNodes(nodes []*xmltree.Node) Sequence {
	out := make(Sequence, len(nodes))
	for i, n := range nodes {
		out[i] = NewNode(n)
	}
	return out
}

// Atomize converts every item to its typed value: atomics pass through,
// nodes become xs:untypedAtomic of their string value (untyped mode; the
// project never had a usable schema, as the paper recounts).
//
// A sequence with no nodes atomizes to itself and is returned without
// copying; callers must treat the result as read-only. Mixed sequences are
// copied once (the node items change type).
func Atomize(s Sequence) Sequence {
	first := -1
	for i, it := range s {
		if _, ok := it.(NodeItem); ok {
			first = i
			break
		}
	}
	if first < 0 {
		return s
	}
	if len(s) == 1 {
		return Sequence{Untyped(s[0].(NodeItem).Node.StringValue())}
	}
	out := make(Sequence, len(s))
	copy(out, s[:first])
	for i := first; i < len(s); i++ {
		if n, ok := IsNode(s[i]); ok {
			out[i] = Untyped(n.StringValue())
		} else {
			out[i] = s[i]
		}
	}
	return out
}

// EffectiveBool computes the effective boolean value of a sequence:
// () is false; a sequence whose first item is a node is true; a singleton
// boolean is itself; a singleton string/untyped is its non-emptiness; a
// singleton numeric is non-zero-and-not-NaN; anything else is FORG0006.
func EffectiveBool(s Sequence) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	if _, ok := IsNode(s[0]); ok {
		return true, nil
	}
	if len(s) > 1 {
		return false, Errf("FORG0006", "effective boolean value of a multi-item non-node sequence")
	}
	switch v := s[0].(type) {
	case Boolean:
		return bool(v), nil
	case String:
		return len(v) > 0, nil
	case Untyped:
		return len(v) > 0, nil
	case Integer:
		return v != 0, nil
	case Decimal:
		return v != 0, nil
	case Double:
		f := float64(v)
		return f == f && f != 0, nil
	}
	return false, Errf("FORG0006", "no effective boolean value for %s", s[0].TypeName())
}

// SortDoc sorts a node sequence into document order with duplicate removal.
// Non-node items cause an XPTY0018 error (mixed path results are illegal).
//
// SortDoc takes ownership of s: the sort is in place and the returned
// sequence reuses s's backing array, so callers must not use s afterwards.
func SortDoc(s Sequence) (Sequence, error) {
	for _, it := range s {
		if _, ok := IsNode(it); !ok {
			return nil, Errf("XPTY0018", "path result mixes nodes and atomic values")
		}
	}
	return xmltree.SortDocOrderFunc(s, func(it Item) *xmltree.Node { return it.(NodeItem).Node }), nil
}
