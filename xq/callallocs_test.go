package xq

import (
	"strings"
	"testing"
)

// TestCallAllocsFlat pins that a call, a built-in's argument vector and a
// loop variable cost the evaluation nothing per iteration: over 10 000
// children each query allocates at most 32 more times than over 100. A
// frame or argv made per call, or a loop variable boxed per iteration, is
// thousands too many here.
func TestCallAllocsFlat(t *testing.T) {
	docs := map[int]*Node{}
	for _, n := range []int{100, 10000} {
		doc, err := ParseXML("<r>" + strings.Repeat("<a/>", n) + "</r>")
		if err != nil {
			t.Fatal(err)
		}
		docs[n] = doc
	}
	for _, tc := range []struct{ src, want100, want10000 string }{
		{`declare function local:f($x) { $x }; count(for $a in /r/a return local:f($a))`, "100", "10000"},
		{`count(/r/a[exists(@k)])`, "0", "0"},
		{`count(for $a in /r/a where $a is $a return $a)`, "100", "10000"},
	} {
		q, err := Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(n int, want string) float64 {
			t.Helper()
			if got, err := q.EvalString(nil, docs[n]); err != nil || got != want {
				t.Fatalf("%s over %d children = %q, %v; want %q", tc.src, n, got, err, want)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := q.EvalString(nil, docs[n]); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(100, tc.want100), allocs(10000, tc.want10000)
		if large > small+32 {
			t.Errorf("%s: %v allocations over 100 children, %v over 10 000; want at most %v",
				tc.src, small, large, small+32)
		}
		t.Logf("%s: %v allocations over 100 children, %v over 10 000", tc.src, small, large)
	}
}
