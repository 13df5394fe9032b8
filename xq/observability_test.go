package xq_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lopsided/xq"
)

// dceTraceSrc is the paper's exact debugging shape: the trace call sits in
// a dead let, the one O2's dead-code pass deletes when trace is pure.
const dceTraceSrc = `
let $x := 2 + 3
let $dummy := trace("x=", $x)
let $y := $x * 10
return $y`

// TestTraceEventsSurviveDCEAtO2 is the acceptance test for the Galax
// anecdote: with the historical quirk enabled (trace pure, -O2), the dead
// let is still eliminated — the legacy fn:trace callback stays silent, as
// the paper experienced — but a structured Tracer installed via WithTracer
// still receives the TraceHit, flagged Elided. The trace is never silently
// swallowed again.
func TestTraceEventsSurviveDCEAtO2(t *testing.T) {
	col := &xq.Collector{}
	q, err := xq.Compile(dceTraceSrc,
		xq.WithOptLevel(xq.O2),
		xq.WithTraceEffectful(false), // the Galax-era quirk
		xq.WithTracer(col))
	if err != nil {
		t.Fatal(err)
	}
	if q.Stats.EliminatedLets == 0 {
		t.Fatal("precondition failed: O2 did not eliminate the dead let, so DCE is not being exercised")
	}
	out, err := q.EvalString(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "50" {
		t.Fatalf("result = %q, want 50", out)
	}
	hits := col.OfKind(xq.TraceHit)
	if len(hits) == 0 {
		t.Fatal("no TraceHit events: the eliminated trace vanished without a record")
	}
	for _, ev := range hits {
		if !ev.Elided {
			t.Fatalf("trace event should be flagged Elided (the call site was removed): %v", ev)
		}
	}
	// The legacy callback shape must preserve the paper-era behavior: a
	// dead-code-eliminated trace never reaches it.
	legacy := 0
	q2, err := xq.Compile(dceTraceSrc,
		xq.WithOptLevel(xq.O2),
		xq.WithTraceEffectful(false),
		xq.WithTracer(xq.TraceFunc(func([]string) { legacy++ })))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.EvalString(nil, nil); err != nil {
		t.Fatal(err)
	}
	if legacy != 0 {
		t.Fatalf("legacy TraceFunc fired %d times for an elided trace, want 0", legacy)
	}
}

// TestTraceEventsAtEveryOptLevel pins that a live fn:trace reaches the
// Tracer at every optimizer level when trace is effectful (the default).
func TestTraceEventsAtEveryOptLevel(t *testing.T) {
	for _, lvl := range []xq.OptLevel{xq.O0, xq.O1, xq.O2} {
		col := &xq.Collector{}
		q, err := xq.Compile(dceTraceSrc, xq.WithOptLevel(lvl), xq.WithTracer(col))
		if err != nil {
			t.Fatalf("O%d: %v", lvl, err)
		}
		out, err := q.EvalString(nil, nil)
		if err != nil {
			t.Fatalf("O%d: %v", lvl, err)
		}
		if out != "50" {
			t.Fatalf("O%d: result = %q, want 50", lvl, out)
		}
		hits := col.OfKind(xq.TraceHit)
		if len(hits) != 1 {
			t.Fatalf("O%d: %d TraceHit events, want 1", lvl, len(hits))
		}
		if hits[0].Elided {
			t.Fatalf("O%d: live trace flagged Elided: %v", lvl, hits[0])
		}
		if len(hits[0].Values) == 0 || hits[0].Values[0] != "x=" {
			t.Fatalf("O%d: trace values = %v, want [x= 5]", lvl, hits[0].Values)
		}
	}
}

// TestPhaseClauseAndCallEvents checks the structured event stream end to
// end: compile emits parse/optimize/compile phases, evaluation emits the
// eval phase, per-clause iterations, and user-function calls.
func TestPhaseClauseAndCallEvents(t *testing.T) {
	const src = `
declare function local:double($n) { 2 * $n };
for $i in 1 to 3
let $d := local:double($i)
return $d`
	col := &xq.Collector{}
	q, err := xq.Compile(src, xq.WithTracer(col))
	if err != nil {
		t.Fatal(err)
	}
	phases := func() map[string]int {
		seen := map[string]int{}
		for _, ev := range col.OfKind(xq.PhaseEnd) {
			seen[ev.Name]++
		}
		return seen
	}
	for _, want := range []string{"parse", "optimize", "compile"} {
		if phases()[want] != 1 {
			t.Fatalf("compile phases = %v, want one %q", phases(), want)
		}
	}
	out, err := q.EvalString(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "2 4 6" {
		t.Fatalf("result = %q", out)
	}
	if phases()["eval"] != 1 {
		t.Fatalf("phases after eval = %v, want one eval", phases())
	}
	var forIters, letBinds []xq.Event
	for _, ev := range col.OfKind(xq.ClauseIter) {
		if strings.HasPrefix(ev.Name, "for $i") {
			forIters = append(forIters, ev)
		}
		if strings.HasPrefix(ev.Name, "let $d") {
			letBinds = append(letBinds, ev)
		}
	}
	if len(forIters) != 3 {
		t.Fatalf("for-clause iterations = %d, want 3", len(forIters))
	}
	for i, ev := range forIters {
		if ev.Iter != int64(i+1) {
			t.Fatalf("iteration %d has ordinal %d", i, ev.Iter)
		}
	}
	if len(letBinds) != 3 {
		t.Fatalf("let-clause bindings = %d, want 3 (one per row)", len(letBinds))
	}
	calls := col.OfKind(xq.FuncCall)
	if len(calls) != 3 {
		t.Fatalf("FuncCall events = %d, want 3", len(calls))
	}
	for _, ev := range calls {
		if ev.Name != "local:double" {
			t.Fatalf("FuncCall name = %q", ev.Name)
		}
	}
}

// TestEvalStatsPopulated checks the per-evaluation resource report against
// its budgets, and that PlanCacheHit distinguishes cold from cached plans.
func TestEvalStatsPopulated(t *testing.T) {
	lim := xq.Limits{MaxSteps: 100000, MaxNodes: 100, MaxOutputBytes: 100000}
	var st xq.EvalStats
	q, err := xq.Compile(
		`<r>{string-join(for $i in 1 to 10 return string($i), ",")}</r>`,
		xq.WithLimits(lim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Eval(nil, nil, xq.WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Steps <= 0 {
		t.Fatalf("Steps = %d, want > 0", st.Steps)
	}
	if st.MaxSteps != lim.MaxSteps || st.MaxNodes != lim.MaxNodes || st.MaxOutputBytes != lim.MaxOutputBytes {
		t.Fatalf("budgets not echoed: %+v", st)
	}
	if st.Nodes <= 0 {
		t.Fatalf("Nodes = %d, want > 0 (the query constructs an element)", st.Nodes)
	}
	if st.Wall <= 0 {
		t.Fatalf("Wall = %v, want > 0", st.Wall)
	}
	if st.PlanCacheHit {
		t.Fatal("plain Compile reported a plan-cache hit")
	}
	if !strings.Contains(st.String(), "plan-cache=miss") {
		t.Fatalf("String() = %q", st.String())
	}

	// Through the cache: first compile misses, second hits.
	src := `(: stats-cache probe :) 1 + 41`
	for i, wantHit := range []bool{false, true} {
		cq, err := xq.CompileCached(src)
		if err != nil {
			t.Fatal(err)
		}
		var cst xq.EvalStats
		if _, err := cq.Eval(nil, nil, xq.WithStats(&cst)); err != nil {
			t.Fatal(err)
		}
		if cst.PlanCacheHit != wantHit {
			t.Fatalf("compile %d: PlanCacheHit = %v, want %v", i, cst.PlanCacheHit, wantHit)
		}
	}
}

// TestStatsOnFailedEval: the stats struct is filled even when the
// evaluation dies on a budget, so a slow-query log can report what the
// run had consumed.
func TestStatsOnFailedEval(t *testing.T) {
	var st xq.EvalStats
	q, err := xq.Compile(`sum(for $i in 1 to 1000000 return $i)`,
		xq.WithLimits(xq.Limits{MaxSteps: 500}))
	if err != nil {
		t.Fatal(err)
	}
	_, evalErr := q.Eval(nil, nil, xq.WithStats(&st))
	if !xq.IsLimitError(evalErr) {
		t.Fatalf("expected a limit error, got %v", evalErr)
	}
	if st.Steps < 500 {
		t.Fatalf("Steps = %d, want >= 500 (the trip point)", st.Steps)
	}
}

// TestEvalStatsEveryEntryPoint runs one reused stats struct, pre-filled with
// sentinels, through every entry point that reports into it: whatever the
// entry point and however the call ends, no sentinel survives, the budget
// the call ran under is echoed and the wall time is measured. Reading the
// document is part of an EvalReader evaluation on every tier, so a malformed
// input reports like any failed evaluation. The full-stream tier runs only
// when no Limits are set (the SAX evaluator charges no budget), so its rows
// run unlimited and echo a zero budget.
func TestEvalStatsEveryEntryPoint(t *testing.T) {
	const doc, bad = `<r><item k="a"/><item k="b"/></r>`, `<r><item k="a"></r>`
	ctx := context.Background()
	limited := xq.Limits{MaxSteps: 100000}
	cache := xq.NewCache(8)
	compileCached := func() *xq.Query {
		q, err := cache.Compile(`count(//item)`)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	up, err := xq.CompileUpdate(`delete //item[1]`)
	if err != nil {
		t.Fatal(err)
	}
	reader := func(input string, opts ...xq.Option) func(...xq.Option) error {
		q, err := xq.CompileStream(`count(//item)`, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return func(o ...xq.Option) error {
			_, err := q.EvalReader(ctx, strings.NewReader(input), o...)
			return err
		}
	}
	noStream, noProj := xq.WithStreamEval(false), xq.WithProjection(false)
	rows := []struct {
		name     string
		run      func(...xq.Option) error
		limits   xq.Limits
		wantErr  bool
		wantHit  bool
		wantMode string
	}{
		{"Eval", func(o ...xq.Option) error {
			_, err := xq.MustCompile(`count(//item)`).Eval(ctx, mustDoc(t, doc), o...)
			return err
		}, limited, false, false, ""},
		{"Eval, cache miss", func(o ...xq.Option) error {
			_, err := compileCached().Eval(ctx, mustDoc(t, doc), o...)
			return err
		}, limited, false, false, ""},
		{"Eval, cache hit", func(o ...xq.Option) error {
			_, err := compileCached().Eval(ctx, mustDoc(t, doc), o...)
			return err
		}, limited, false, true, ""},
		{"Transform", func(o ...xq.Option) error {
			_, err := up.Transform(ctx, mustDoc(t, doc), o...)
			return err
		}, limited, false, false, ""},
		{"Transform(nil)", func(o ...xq.Option) error {
			_, err := up.Transform(ctx, nil, o...)
			return err
		}, limited, true, false, ""},
		{"EvalReader full-stream", reader(doc), xq.Limits{}, false, false, "full-stream"},
		{"EvalReader full-stream, malformed", reader(bad), xq.Limits{}, true, false, "full-stream"},
		{"EvalReader projected", reader(doc, noStream), limited, false, false, "projected"},
		{"EvalReader projected, malformed", reader(bad, noStream), limited, true, false, "projected"},
		{"EvalReader materialize", reader(doc, noStream, noProj), limited, false, false, "materialize"},
		{"EvalReader materialize, malformed", reader(bad, noStream, noProj), limited, true, false, "materialize"},
	}
	var st xq.EvalStats
	v := reflect.ValueOf(&st).Elem()
	for _, row := range rows {
		// Every integer and duration field -1, the mode "x", the hit flag set.
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Int64 {
				f.SetInt(-1)
			}
		}
		st.StreamMode, st.PlanCacheHit = "x", true

		opts := []xq.Option{xq.WithStats(&st)}
		if row.limits != (xq.Limits{}) {
			opts = append(opts, xq.WithLimits(row.limits))
		}
		if err := row.run(opts...); (err != nil) != row.wantErr {
			t.Errorf("%s: err = %v, want error %v", row.name, err, row.wantErr)
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Int64 && f.Int() == -1 {
				t.Errorf("%s: %s kept its sentinel: %+v", row.name, v.Type().Field(i).Name, st)
			}
		}
		if st.StreamMode != row.wantMode || st.PlanCacheHit != row.wantHit {
			t.Errorf("%s: StreamMode %q PlanCacheHit %v, want %q %v", row.name, st.StreamMode, st.PlanCacheHit, row.wantMode, row.wantHit)
		}
		if st.MaxSteps != row.limits.MaxSteps || st.Wall <= 0 {
			t.Errorf("%s: MaxSteps %d Wall %v, want %d and > 0", row.name, st.MaxSteps, st.Wall, row.limits.MaxSteps)
		}
	}
}

// TestExplainOutput checks the compiled-plan dump: optimizer summary,
// frame layout, function table, plan notes, and the lowered body.
func TestExplainOutput(t *testing.T) {
	const src = `
declare function local:score($a, $b) { $a * 10 + $b };
for $i in 1 to 4
let $s := local:score($i, 7)
where $s > 20
return $s`
	q, err := xq.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	dump := q.Explain()
	for _, want := range []string{
		"optimizer: level O2",
		"plan:",
		"local:score",
		"for $i",
		"let $s",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("Explain() missing %q:\n%s", want, dump)
		}
	}
	// The elided-trace record appears in the dump under the DCE quirk.
	q2, err := xq.Compile(dceTraceSrc, xq.WithTraceEffectful(false))
	if err != nil {
		t.Fatal(err)
	}
	if dump2 := q2.Explain(); !strings.Contains(dump2, "elided") {
		t.Fatalf("Explain() of a DCE'd trace should mention the elided call:\n%s", dump2)
	}
}

// TestMetricsSnapshotCounters checks that compiles, evaluations, errors,
// and limit hits all land in the process-wide registry.
func TestMetricsSnapshotCounters(t *testing.T) {
	before := xq.MetricsSnapshot()
	q := xq.MustCompile(`1 + 1`)
	for i := 0; i < 3; i++ {
		if _, err := q.Eval(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One failed evaluation (dynamic error)…
	qe := xq.MustCompile(`1 div 0`)
	if _, err := qe.Eval(nil, nil); err == nil {
		t.Fatal("expected a dynamic error")
	}
	// …and one stopped by the sandbox.
	ql := xq.MustCompile(`sum(for $i in 1 to 1000000 return $i)`,
		xq.WithLimits(xq.Limits{MaxSteps: 100}))
	if _, err := ql.Eval(nil, nil); !xq.IsLimitError(err) {
		t.Fatalf("expected a limit error, got %v", err)
	}
	after := xq.MetricsSnapshot()
	if got := after.Compiles - before.Compiles; got < 3 {
		t.Fatalf("Compiles rose by %d, want >= 3", got)
	}
	if got := after.Evals - before.Evals; got < 5 {
		t.Fatalf("Evals rose by %d, want >= 5", got)
	}
	if after.EvalErrors-before.EvalErrors < 2 {
		t.Fatalf("EvalErrors rose by %d, want >= 2", after.EvalErrors-before.EvalErrors)
	}
	if after.LimitHits-before.LimitHits < 1 {
		t.Fatalf("LimitHits rose by %d, want >= 1", after.LimitHits-before.LimitHits)
	}
	if after.EvalLatency.Count <= before.EvalLatency.Count {
		t.Fatal("EvalLatency histogram did not record")
	}
	if after.EvalLatency.Mean() < 0 {
		t.Fatalf("negative mean latency: %v", after.EvalLatency.Mean())
	}
}

// TestTraceEventCounterAndStats: live fn:trace hits are counted both in
// EvalStats.TraceEvents and the process-wide TraceEvents counter.
func TestTraceEventCounterAndStats(t *testing.T) {
	before := xq.MetricsSnapshot().TraceEvents
	var st xq.EvalStats
	q := xq.MustCompile(
		`for $i in 1 to 4 return trace("i", $i)`,
		xq.WithTracer(xq.NopTracer))
	if _, err := q.Eval(nil, nil, xq.WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.TraceEvents != 4 {
		t.Fatalf("EvalStats.TraceEvents = %d, want 4", st.TraceEvents)
	}
	if got := xq.MetricsSnapshot().TraceEvents - before; got != 4 {
		t.Fatalf("registry TraceEvents rose by %d, want 4", got)
	}
}

// TestNopTracerResultUnchanged: installing the no-op tracer must not
// change any observable result.
func TestNopTracerResultUnchanged(t *testing.T) {
	const src = `
declare function local:f($n) { $n * $n };
string-join(for $i in 1 to 5 return string(local:f($i)), " ")`
	plain := xq.MustCompile(src)
	traced := xq.MustCompile(src, xq.WithTracer(xq.NopTracer))
	a, err := plain.EvalString(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.EvalString(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("results diverge with NopTracer installed: %q vs %q", a, b)
	}
	if a != "1 4 9 16 25" {
		t.Fatalf("result = %q", a)
	}
}

var sinkSeq xq.Sequence

// Benchmarks proving the no-op Tracer is nearly free: compare
// BenchmarkTracedEval/off with /nop. CI does not gate on the ratio, but
// the pair documents the cost (the budget is < 5%).
func BenchmarkTracedEval(b *testing.B) {
	const src = `
declare function local:score($a, $b) { $a + $b * 2 };
for $i in 1 to 40
let $s := local:score($i, $i + 1)
where $s mod 3 = 0
return $s`
	for _, bc := range []struct {
		name string
		opts []xq.Option
	}{
		{"off", nil},
		{"nop", []xq.Option{xq.WithTracer(xq.NopTracer)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			q := xq.MustCompile(src, bc.opts...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := q.Eval(nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				sinkSeq = out
			}
		})
	}
}

func ExampleCollector() {
	col := &xq.Collector{}
	q := xq.MustCompile(`for $i in 1 to 2 return trace("saw", $i)`,
		xq.WithTracer(col))
	out, _ := q.EvalString(nil, nil)
	fmt.Println("result:", out)
	for _, ev := range col.OfKind(xq.TraceHit) {
		fmt.Println(ev.String())
	}
	// Output:
	// result: 1 2
	// trace: saw 1
	// trace: saw 2
}
