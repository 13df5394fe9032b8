package xq_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lopsided/xq"
)

// TestPlanCacheEviction overflows the bounded plan cache with unique
// programs and checks that eviction kicks in: occupancy stays at or under
// the cap, evictions are counted, and evicted programs recompile fine.
func TestPlanCacheEviction(t *testing.T) {
	before := xq.PlanCache()
	const programs = 1300 // comfortably past the 1024-entry cap
	for i := 0; i < programs; i++ {
		src := fmt.Sprintf(`(: evict-seq %d :) %d + 1`, i, i)
		q, err := xq.CompileCached(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if i == 0 || i == programs-1 {
			out, err := q.EvalString(nil, nil)
			if err != nil || out != fmt.Sprintf("%d", i+1) {
				t.Fatalf("program %d evaluated to %q (%v)", i, out, err)
			}
		}
	}
	after := xq.PlanCache()
	if after.Entries > 1024 {
		t.Fatalf("cache holds %d entries, cap is 1024", after.Entries)
	}
	if after.Evictions <= before.Evictions {
		t.Fatalf("expected evictions to rise past %d, got %d", before.Evictions, after.Evictions)
	}
	if after.SourceBytes <= 0 {
		t.Fatalf("SourceBytes = %d, want > 0", after.SourceBytes)
	}
	// A swept program is still compilable — eviction only costs a recompile.
	q, err := xq.CompileCached(`(: evict-seq 0 :) 0 + 1`)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := q.EvalString(nil, nil); err != nil || out != "1" {
		t.Fatalf("recompiled evictee evaluated to %q (%v)", out, err)
	}
}

// TestPlanCacheConcurrentChurn runs 16 goroutines that together push the
// cache through several eviction sweeps while a shared hot program is
// compiled and evaluated throughout. Run under -race in CI; it pins that
// insertion, eviction, and the stats snapshot are safe to interleave.
func TestPlanCacheConcurrentChurn(t *testing.T) {
	const goroutines = 16
	const perG = 120 // 16*120 = 1920 unique programs, > one full cap
	hot := `(: churn-hot :) string-join(for $i in 1 to 3 return string($i), "-")`
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				src := fmt.Sprintf(`(: churn %d-%d :) %d * 2`, g, i, i)
				if _, err := xq.CompileCached(src); err != nil {
					errs <- fmt.Errorf("goroutine %d program %d: %w", g, i, err)
					return
				}
				if i%16 == 0 {
					// Interleave stats snapshots with eviction sweeps.
					if st := xq.PlanCache(); st.Entries < 0 {
						errs <- fmt.Errorf("negative occupancy: %+v", st)
						return
					}
					q, err := xq.CompileCached(hot)
					if err != nil {
						errs <- fmt.Errorf("hot program: %w", err)
						return
					}
					out, err := q.EvalString(nil, nil)
					if err != nil || out != "1-2-3" {
						errs <- fmt.Errorf("hot program evaluated to %q (%v)", out, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := xq.PlanCache(); st.Entries > 1024 {
		t.Fatalf("cache holds %d entries after churn, cap is 1024", st.Entries)
	}
}

// TestCacheExactBoundFIFO pins the instance cache's eviction contract: it
// never holds more than its bound, and the victim is the oldest insertion —
// not the least recently used one.
func TestCacheExactBoundFIFO(t *testing.T) {
	c := xq.NewCache(3)
	compile := func(src string) bool {
		t.Helper()
		q, err := c.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var st xq.EvalStats
		if _, err := q.Eval(nil, nil, xq.WithStats(&st)); err != nil {
			t.Fatal(err)
		}
		if n := c.Stats().Entries; n > 3 {
			t.Fatalf("cache holds %d entries, bound is 3", n)
		}
		return st.PlanCacheHit
	}
	for _, src := range []string{`1`, `2`, `3`} {
		if compile(src) {
			t.Fatalf("first compile of %s reported a hit", src)
		}
	}
	if !compile(`1`) { // a hit does not refresh 1's place in the queue
		t.Fatal("1 should still be cached")
	}
	compile(`4`) // evicts 1, the oldest insertion
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("after one overflow: %+v", st)
	}
	if !compile(`2`) || !compile(`3`) || !compile(`4`) {
		t.Fatal("2, 3 and 4 should have survived the eviction of 1")
	}
	if compile(`1`) {
		t.Fatal("1 was the FIFO victim and should have been recompiled")
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 5 || st.Evictions != 2 || st.SourceBytes != 3 {
		t.Fatalf("final scoreboard: %+v", st)
	}
}

// TestCacheCachesCompileErrors: a bad program costs one compile, not one
// per request, and query/update plans of one text are keyed apart.
func TestCacheCachesCompileErrors(t *testing.T) {
	c := xq.NewCache(8)
	compiles := func() int64 { return xq.MetricsSnapshot().Compiles }
	before := compiles()
	for i := 0; i < 3; i++ {
		if _, err := c.Compile(`for $x in`); xq.ErrorCode(err) != "XPST0003" {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if got := compiles() - before; got != 1 {
		t.Fatalf("bad program compiled %d times, want 1", got)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("scoreboard after a cached error: %+v", st)
	}
	// `delete //x` is both a valid query and a valid update program.
	q, err := c.Compile(`delete //x`)
	if err != nil || q.IsUpdate() {
		t.Fatalf("as query: update=%v err=%v", q != nil && q.IsUpdate(), err)
	}
	up, err := c.CompileUpdate(`delete //x`)
	if err != nil || !up.IsUpdate() {
		t.Fatalf("as update: %v", err)
	}
	if st := c.Stats(); st.Entries != 3 || st.Misses != 3 {
		t.Fatalf("query and update plans collided: %+v", st)
	}
}

// TestRequestAllocs pins what one xqd request costs the engine outside the
// evaluation proper: a plan-cache hit is one allocation (the Query), and an
// Eval under the three options the daemon passes allocates what a plain Eval
// does — the compiled program is evaluated directly, with no per-call
// runtime wrapper. The counts are exact, like TestIndexedEvalAllocs'.
func TestRequestAllocs(t *testing.T) {
	doc, err := xq.ParseXML(`<r><item k="k7"/><item k="k1"/><item k="k7"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	xq.Freeze(doc)
	const src = `count(//item[@k = 'k7'])`
	c := xq.NewCache(8)
	q, err := c.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var st xq.EvalStats
	opts := []xq.Option{xq.WithLimits(xq.Limits{MaxSteps: 100000}), xq.WithStats(&st),
		xq.WithDocResolver(func(string) (*xq.Node, error) { return nil, errors.New("no documents") })}
	// The first evaluation builds the lazy index sections.
	if out, err := q.EvalString(ctx, doc, opts...); err != nil || out != "2" {
		t.Fatalf("eval = %q, %v; want 2", out, err)
	}
	eval := func(opts ...xq.Option) func() {
		return func() {
			if _, err := q.Eval(ctx, doc, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	request := func() {
		q, err := c.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Eval(ctx, doc, opts...); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
		want float64
	}{
		{"plain Eval", eval(), 8},
		{"Eval with the daemon's options", eval(opts...), 8},
		{"cache hit + Eval with the daemon's options", request, 9},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.want)
		}
	}
}
