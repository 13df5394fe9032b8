package xdm

import (
	"math"
	"testing"
)

// TestCompareStringPairsAllocs pins the unboxed string path of CompareValue:
// an xs:string or xs:untypedAtomic against either costs no allocation under
// any of the six operators.
func TestCompareStringPairsAllocs(t *testing.T) {
	operands := []Item{String("b"), Untyped("b"), String("a"), Untyped("c")}
	ops := []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for _, a := range operands[:2] {
		for _, b := range operands {
			for _, op := range ops {
				got := testing.AllocsPerRun(100, func() {
					if _, err := CompareValue(a, b, op); err != nil {
						t.Fatal(err)
					}
				})
				if got != 0 {
					t.Errorf("%s %s %s: %v allocs, want 0", a.TypeName(), op, b.TypeName(), got)
				}
			}
		}
	}
}

// TestCompareValueVerdicts pins what CompareValue answers for the string
// pairings and for the pairings that still go through coerceUntyped: an
// untyped operand compares numerically against a number (so "03" = 3 and
// NaN equals nothing), as a boolean against a boolean, and as a string
// against a string.
func TestCompareValueVerdicts(t *testing.T) {
	for _, tc := range []struct {
		a, b Item
		op   CompareOp
		want bool
		code string
	}{
		{String("a"), String("a"), OpEq, true, ""},
		{String("a"), Untyped("b"), OpLt, true, ""},
		{Untyped("b"), String("a"), OpGt, true, ""},
		{Untyped("x"), Untyped("x"), OpNe, false, ""},
		{Untyped(" a"), String("a"), OpEq, false, ""},
		{Untyped("03"), Integer(3), OpEq, true, ""},
		{Integer(3), Untyped("03"), OpEq, true, ""},
		{Untyped("03"), String("3"), OpEq, false, ""},
		{Untyped("1"), Boolean(true), OpEq, true, ""},
		{Untyped(" true "), Boolean(true), OpEq, true, ""},
		{Boolean(false), Untyped("yes"), OpEq, true, ""},
		{Untyped("x"), Double(math.NaN()), OpEq, false, ""},
		{Untyped("x"), Double(math.NaN()), OpNe, true, ""},
		{Untyped("NaN"), Integer(1), OpLt, false, ""},
		{String("1"), Integer(1), OpEq, false, "XPTY0004"},
		{String("true"), Boolean(true), OpEq, false, "XPTY0004"},
	} {
		got, err := CompareValue(tc.a, tc.b, tc.op)
		code := ""
		if err != nil {
			code = err.(*Error).Code
		}
		if got != tc.want || code != tc.code {
			t.Errorf("%s(%q) %s %s(%q) = %v (code %q), want %v (code %q)",
				tc.a.TypeName(), tc.a.StringValue(), tc.op, tc.b.TypeName(), tc.b.StringValue(), got, code, tc.want, tc.code)
		}
	}
}
