package xq

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"lopsided/internal/xmltree"
)

// TestPathStepLinearInFanOut: a path step's cost grows with its result, not
// with result × fan-out. Document order used to be recovered by scanning a
// node's parent for it at every ancestor, so count(/r/item) over 32 000
// siblings took 193 times as long as over 2 000. Now a tree the scanner
// sealed, or the index has walked, answers from ordinals, and any other
// tree finds positions under a wide parent by scanning on from the last one
// or from a table built once per sort. Each row is timed over 4 000 and
// 32 000 siblings, best of five a side and a collection before each so
// that neither a scheduling hiccup nor a mark phase can fake a slope. 8
// times the input may cost 24 times the time: a row that really sorts is
// n log n (10 times), and 32 000 items no longer fit the cache that 4 000
// do, which alone makes the integer check of sorted input cost 13 times as
// much; the quadratic this guards against is 64 times, and measured more.
func TestPathStepLinearInFanOut(t *testing.T) {
	wide := func(n int) string {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<item n="%d"/>`, i)
		}
		b.WriteString("</r>")
		return b.String()
	}
	touch := MustCompileUpdate(`insert attribute touched { "1" } into /r`)
	sources := []struct {
		name string
		opts []Option
		tree func(n int) (*Node, error)
	}{
		{"numbered at birth", nil, func(n int) (*Node, error) {
			return xmltree.ParseProjected(strings.NewReader(wide(n)), nil)
		}},
		{"frozen, never numbered", []Option{WithAccessPaths(false)}, func(n int) (*Node, error) {
			d, err := ParseXML(wide(n))
			return Freeze(d), err
		}},
		{"mutable", nil, func(n int) (*Node, error) { return ParseXML(wide(n)) }},
		{"Transform output", nil, func(n int) (*Node, error) {
			d, err := ParseXML(wide(n))
			if err != nil {
				return nil, err
			}
			return touch.Transform(nil, d)
		}},
	}
	rows := []struct {
		src  string
		want func(n int) string
	}{
		{`count(/r/item)`, func(n int) string { return fmt.Sprint(n) }},
		{`sum(//item/@n)`, func(n int) string { return fmt.Sprint(n * (n - 1) / 2) }},
		// Unordered input: a real sort.
		{`count(reverse(/r/item)/@n)`, func(n int) string { return fmt.Sprint(n) }},
		{`count((/r/item[@n mod 2 = 0] | /r/item[@n mod 3 = 0])/@n)`, func(n int) string {
			return fmt.Sprint((n+1)/2 + (n+2)/3 - (n+5)/6)
		}},
		{`/r/item[1] << /r/item[last()]`, func(int) string { return "true" }},
	}
	const small, large = 4000, 32000
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			trees := map[int]*Node{}
			for _, n := range []int{small, large} {
				d, err := src.tree(n)
				if err != nil {
					t.Fatal(err)
				}
				trees[n] = d
			}
			for _, row := range rows {
				q, err := Compile(row.src, src.opts...)
				if err != nil {
					t.Fatal(err)
				}
				best := map[int]time.Duration{small: math.MaxInt64, large: math.MaxInt64}
				for i := 0; i < 5; i++ {
					for n, d := range trees {
						runtime.GC()
						start := time.Now()
						got, err := q.EvalString(nil, d)
						best[n] = min(best[n], time.Since(start))
						if want := row.want(n); err != nil || got != want {
							t.Fatalf("%s over %d siblings = %q, %v; want %q", row.src, n, got, err, want)
						}
					}
				}
				if best[large] > 24*best[small] {
					t.Errorf("%s: %d siblings took %v, %d took %v: more than 24x for 8x the input",
						row.src, large, best[large], small, best[small])
				}
				t.Logf("%-58s %10v %10v  %.1fx", row.src, best[small], best[large],
					float64(best[large])/float64(best[small]))
			}
		})
	}
}

// TestKeyedJoinLinearInNodes: a lookup by id is a probe, so a join of every
// relation to its target node costs steps in proportion to the relations,
// not relations × nodes. Steps are exact and repeat, so this needs no
// timing: twice the model may cost 2.2 times the steps (the parent's nested
// loop costs 4), and every probe must be served — a fallback means the
// fold was planned but the tree was walked.
func TestKeyedJoinLinearInNodes(t *testing.T) {
	model := func(n int) *Node {
		var b strings.Builder
		b.WriteString("<m>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<node id="N%d"/>`, i)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<relation source="N%d" target="N%d"/>`, i, (i*7+3)%n)
		}
		b.WriteString("</m>")
		d, err := ParseXML(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return Freeze(d)
	}
	q, err := Compile(`count(for $r in /m/relation return /m/node[@id = string($r/@target)])`, WithOptLevel(O2))
	if err != nil {
		t.Fatal(err)
	}
	steps := map[int]int64{}
	for _, n := range []int{1000, 2000} {
		var st EvalStats
		got, err := q.EvalString(nil, model(n), WithStats(&st))
		if want := fmt.Sprint(n); err != nil || got != want {
			t.Fatalf("%d nodes: %q, %v; want %q", n, got, err, want)
		}
		if st.IndexHits < int64(n) || st.IndexFallbacks != 0 {
			t.Errorf("%d nodes: index hits %d, fallbacks %d; want every lookup served", n, st.IndexHits, st.IndexFallbacks)
		}
		steps[n] = st.Steps
	}
	if ratio := float64(steps[2000]) / float64(steps[1000]); ratio > 2.2 {
		t.Errorf("steps %d at 1000 nodes, %d at 2000: %.2fx for 2x the model", steps[1000], steps[2000], ratio)
	}
	t.Logf("steps: %d at 1000 nodes, %d at 2000", steps[1000], steps[2000])
}
