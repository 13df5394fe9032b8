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
