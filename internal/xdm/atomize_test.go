package xdm

import "testing"

// TestAtomizeAllocs pins the Atomize fast path: a node-free sequence
// atomizes to itself.
func TestAtomizeAllocs(t *testing.T) {
	seq := Of(Integer(1), String("two"), Double(3.5), Boolean(true), Untyped("five"))
	got := testing.AllocsPerRun(100, func() {
		if out := Atomize(seq); len(out) != len(seq) {
			t.Fatalf("Atomize returned %d items, want %d", len(out), len(seq))
		}
	})
	if got != 0 {
		t.Errorf("atomic only: %v allocs per Atomize, want 0", got)
	}
}

// TestBoolSeqAllocs pins the shared boolean singletons: a boolean result
// costs no allocation, and the two values stay what they say they are.
func TestBoolSeqAllocs(t *testing.T) {
	got := testing.AllocsPerRun(100, func() {
		if tr, fa := BoolSeq(true), BoolSeq(false); len(tr) != 1 || tr[0] != Boolean(true) || len(fa) != 1 || fa[0] != Boolean(false) {
			t.Fatalf("BoolSeq(true), BoolSeq(false) = %v, %v", tr, fa)
		}
	})
	if got != 0 {
		t.Errorf("%v allocs per BoolSeq pair, want 0", got)
	}
}
