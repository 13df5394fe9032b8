package difftest

import "testing"

// TestCallSweep runs 300 generated call cases through every configuration:
// gen.go never declares a function, so this is the sweep that exercises
// user calls, their frames on the value stack, the callee scope swap and an
// invariant function's memo slot.
func TestCallSweep(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		c := GenerateCalls(seed)
		if d := Check(c, Matrix()); d != nil {
			t.Errorf("seed %d: %v", seed, d)
		}
	}
}
