package xq_test

import (
	"fmt"
	"sync"
	"testing"

	"lopsided/xq"
)

// TestConcurrentEvalSharedQuery exercises the compile-once/eval-many
// contract: one compiled *Query evaluated from many goroutines at once
// (run under -race in CI). Every evaluation gets private frames and focus,
// so all goroutines must see identical results.
func TestConcurrentEvalSharedQuery(t *testing.T) {
	const src = `
declare function local:fib($n) {
  if ($n lt 2) then $n else local:fib($n - 1) + local:fib($n - 2)
};
declare variable $offset external;
let $doc := <lib>{ for $i in 1 to 10 return <book year="{1990 + $i}"><t>b{$i}</t></book> }</lib>
for $b in $doc/book[@year mod 2 = 0]
let $score := local:fib(7) + $offset
order by $b/t descending
return concat($b/t, ":", $score)`

	q, err := xq.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]xq.Sequence{"offset": xq.Singleton(xq.Integer(100))}
	want, err := q.EvalString(nil, nil, xq.WithVars(vars))
	if err != nil {
		t.Fatal(err)
	}
	if want == "" {
		t.Fatal("reference evaluation produced no output")
	}

	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := q.EvalString(nil, nil, xq.WithVars(vars))
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("concurrent eval diverged:\n got %q\nwant %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentPathsLeaveExternalVariable: a path that starts from an
// external variable sorts its own copy into document order, never the
// caller's sequence, which every concurrent evaluation shares (run under
// -race in CI). $x holds <b/> before <a/>, out of document order.
func TestConcurrentPathsLeaveExternalVariable(t *testing.T) {
	doc, err := xq.ParseXML(`<r><a/><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	kids := doc.DocumentElement().Children()
	x := xq.Sequence{xq.NewNodeItem(kids[1]), xq.NewNodeItem(kids[0])}
	vars := map[string]xq.Sequence{"x": x}
	q, err := xq.Compile(`declare variable $x external; (count($x/.), name($x[1]), name(($x/.)[1]))`)
	if err != nil {
		t.Fatal(err)
	}
	const want = "2 b a"
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				got, err := q.EvalString(nil, nil, xq.WithVars(vars))
				if err != nil || got != want {
					errs <- fmt.Errorf("eval = %q, %v; want %q", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if x[0] != xq.NewNodeItem(kids[1]) || x[1] != xq.NewNodeItem(kids[0]) {
		t.Fatal("evaluation reordered the caller's sequence")
	}
}

// TestConcurrentRecursiveCallsShareOneVariable: one compiled query whose
// recursive user functions filter, index and walk an external variable,
// evaluated on four goroutines at once (run under -race in CI). Each
// evaluation has its own context and value stack, and the variable's array,
// which every path head and loop variable reads in place, is never written:
// every result equals the serial one, and the variable is as it was.
func TestConcurrentRecursiveCallsShareOneVariable(t *testing.T) {
	doc, err := xq.ParseXML(`<r><a k="1"/><a k="2"/><a k="3"/><a k="4"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	kids := doc.DocumentElement().Children()
	x := xq.Sequence{xq.NewNodeItem(kids[2]), xq.NewNodeItem(kids[0]), xq.NewNodeItem(kids[3]), xq.NewNodeItem(kids[1])}
	before := append(xq.Sequence(nil), x...)
	vars := map[string]xq.Sequence{"x": x}
	q, err := xq.Compile(`declare variable $x external;
declare function local:pick($s, $i) { (string($s[$i]/@k), count($s[@k > $i])) };
declare function local:walk($s, $n) {
  if ($n = 0) then data($s/@k)
  else (local:pick($s, $n), local:walk($s[position() != 1], $n - 1))
};
declare function local:fact($n) { if ($n le 1) then 1 else $n * local:fact($n - 1) };
(local:walk($x, 4), for $a at $i in $x return concat($a/@k, ":", local:fact($i)),
 some $a in $x satisfies $a/@k = "4", string($x[1]/@k))`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.EvalString(nil, nil, xq.WithVars(vars))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				got, err := q.EvalString(nil, nil, xq.WithVars(vars))
				if err != nil || got != want {
					errs <- fmt.Errorf("eval = %q, %v; want %q", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != before[i] {
			t.Fatal("evaluation wrote into the caller's sequence")
		}
	}
}

// TestConcurrentCompileCached hammers the plan cache from many goroutines:
// same source, concurrent first compilation, every caller must get a
// working query.
func TestConcurrentCompileCached(t *testing.T) {
	src := `for $i in 1 to 5 return $i * $i` // unique to this test
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := xq.CompileCached(src)
			if err != nil {
				errs <- err
				return
			}
			out, err := q.EvalString(nil, nil)
			if err != nil {
				errs <- err
				return
			}
			if out != "1 4 9 16 25" {
				errs <- fmt.Errorf("cached query result: %q", out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCompileCachedKeying(t *testing.T) {
	src := `let $x := 1 + 2 return $x` // unique to this test
	_, misses0, _ := countStats(t)
	if _, err := xq.CompileCached(src); err != nil {
		t.Fatal(err)
	}
	hits1, misses1, _ := countStats(t)
	if misses1 != misses0+1 {
		t.Fatalf("first compile should miss: misses %d -> %d", misses0, misses1)
	}
	// Same source + same compile options: hit, even with different runtime
	// options (a tracer does not affect the plan).
	if _, err := xq.CompileCached(src, xq.WithTracer(xq.TraceFunc(func([]string) {}))); err != nil {
		t.Fatal(err)
	}
	hits2, misses2, _ := countStats(t)
	if hits2 != hits1+1 || misses2 != misses1 {
		t.Fatalf("runtime-option recompile should hit: hits %d -> %d, misses %d -> %d",
			hits1, hits2, misses1, misses2)
	}
	// Different optimizer level: different plan, so a miss.
	if _, err := xq.CompileCached(src, xq.WithOptLevel(xq.O0)); err != nil {
		t.Fatal(err)
	}
	_, misses3, _ := countStats(t)
	if misses3 != misses2+1 {
		t.Fatalf("opt-level recompile should miss: misses %d -> %d", misses2, misses3)
	}
	// Compile errors are cached as well.
	bad := `let $ :=` // unique broken program
	if _, err := xq.CompileCached(bad); err == nil {
		t.Fatal("expected compile error")
	}
	if _, err := xq.CompileCached(bad); err == nil {
		t.Fatal("expected cached compile error")
	}
}

func countStats(t *testing.T) (hits, misses, entries int64) {
	t.Helper()
	st := xq.PlanCache()
	return st.Hits, st.Misses, st.Entries
}
