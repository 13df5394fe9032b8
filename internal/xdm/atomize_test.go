package xdm

import (
	"testing"

	"lopsided/internal/xmltree"
)

// TestAtomizeAllocs pins the Atomize fast paths: a node-free sequence
// atomizes to itself, and a sequence over frozen (copy-on-write shared)
// nodes reuses each node's memoized boxed value — one output slice per
// call, nothing per node.
func TestAtomizeAllocs(t *testing.T) {
	doc := xmltree.MustParse(`<r><a>alpha</a><b>beta beta</b><c x="1">gamma<d>delta</d></c></r>`)
	kids := doc.DocumentElement().Children()
	for _, k := range kids {
		// Freeze each subtree the way the engine does: by cloning it.
		_ = k.Clone()
	}
	for _, tc := range []struct {
		name string
		seq  Sequence
		want float64
	}{
		{"atomic only", Of(Integer(1), String("two"), Double(3.5), Boolean(true), Untyped("five")), 0},
		{"mixed, cached", Of(Integer(7), NewNode(kids[0]), String("mid"), NewNode(kids[1]), NewNode(kids[2])), 1},
		// The comparison hot path (`@a eq "v"`).
		{"singleton node, cached", Singleton(NewNode(kids[2])), 1},
	} {
		Atomize(tc.seq) // warm the per-node atom caches
		got := testing.AllocsPerRun(100, func() {
			if out := Atomize(tc.seq); len(out) != len(tc.seq) {
				t.Fatalf("%s: Atomize returned %d items, want %d", tc.name, len(out), len(tc.seq))
			}
		})
		if got != tc.want {
			t.Errorf("%s: %v allocs per Atomize, want %v", tc.name, got, tc.want)
		}
	}
}
