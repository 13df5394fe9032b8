package xq

import (
	"context"
	"strings"
	"testing"
)

const streamTestDoc = `<site>
  <people>
    <person id="p1" featured="yes"><name>Ann</name></person>
    <person id="p2"><name>Bo</name></person>
  </people>
  <items>
    <item id="i1"><name>lamp</name><price>10</price></item>
    <item id="i2"><name>rug</name><price>3</price></item>
  </items>
</site>`

// evalMaterialized is the reference: parse the whole document, evaluate.
func evalMaterialized(t *testing.T, src string) string {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	doc, err := ParseXML(streamTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.EvalString(context.Background(), doc)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return out
}

func compileStream(t *testing.T, src string, opts ...Option) *StreamQuery {
	t.Helper()
	q, err := CompileStream(src, opts...)
	if err != nil {
		t.Fatalf("CompileStream %q: %v", src, err)
	}
	return q
}

func TestStreamModeVerdicts(t *testing.T) {
	cases := []struct {
		src  string
		mode StreamMode
	}{
		{`count(//item)`, StreamFull},
		{`//person/name`, StreamFull},
		{`exists(//person[@featured = "yes"])`, StreamFull},
		{`sum(//item/price)`, StreamProjected},
		// The numeric built-ins project like any atomizing function: their
		// rows say so, where a name list once forgot them and the analysis
		// bailed ("unknown function round").
		{`sum(for $i in //item return round($i/@n))`, StreamProjected},
		{`for $p in /site/people/person return $p/name`, StreamProjected},
		{`.`, StreamMaterialize},
		{`//item/..`, StreamMaterialize},
	}
	for _, c := range cases {
		q := compileStream(t, c.src)
		if got := q.Mode(); got != c.mode {
			t.Errorf("%q: mode %v, want %v\nexplain:\n%s", c.src, got, c.mode, q.Explain())
		}
	}
}

func TestStreamEvalReaderParity(t *testing.T) {
	queries := []string{
		`count(//item)`,
		`//person/name`,
		`sum(//item/price)`,
		`for $p in /site/people/person order by $p/name return string($p/name)`,
		`count(//person[@featured = "yes"])`,
		`.`,
	}
	for _, src := range queries {
		want := evalMaterialized(t, src)
		for _, opts := range [][]Option{
			nil,
			{WithStreamEval(false)},
			{WithStreamEval(false), WithProjection(false)},
		} {
			q := compileStream(t, src, opts...)
			got, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc))
			if err != nil {
				t.Fatalf("%q (mode %v): %v", src, q.Mode(), err)
			}
			if got != want {
				t.Errorf("%q (mode %v): got %q, want %q", src, q.Mode(), got, want)
			}
		}
	}
}

func TestStreamEvalReaderStats(t *testing.T) {
	var st EvalStats

	q := compileStream(t, `count(//item)`)
	if _, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.StreamMode != "full-stream" || st.BytesScanned != int64(len(streamTestDoc)) {
		t.Fatalf("full-stream stats: %+v", st)
	}

	q = compileStream(t, `sum(//item/price)`)
	if _, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.StreamMode != "projected" || st.BytesScanned != int64(len(streamTestDoc)) {
		t.Fatalf("projected stats: %+v", st)
	}
	if st.NodesPruned == 0 {
		t.Fatalf("projection should prune the people subtree: %+v", st)
	}
	if !strings.Contains(st.String(), "stream=projected") {
		t.Fatalf("String() missing stream mode: %s", st.String())
	}

	q = compileStream(t, `count(//item)`, WithStreamEval(false), WithProjection(false))
	if _, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.StreamMode != "materialize" || st.BytesScanned != int64(len(streamTestDoc)) {
		t.Fatalf("materialize stats: %+v", st)
	}
}

func TestStreamLimitsForceFallback(t *testing.T) {
	// The SAX evaluator cannot charge resource budgets, so configured limits
	// must push the query down a tier rather than bypass the sandbox.
	q := compileStream(t, `count(//item)`, WithLimits(Limits{MaxSteps: 1_000_000}))
	if q.Mode() == StreamFull {
		t.Fatalf("limits configured but mode is %v", q.Mode())
	}
	out, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc))
	if err != nil || out != "2" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	// Per-eval limits demote an otherwise full-stream query too.
	q2 := compileStream(t, `count(//item)`)
	var st EvalStats
	out, err = q2.EvalReader(context.Background(), strings.NewReader(streamTestDoc),
		WithLimits(Limits{MaxSteps: 1_000_000}), WithStats(&st))
	if err != nil || out != "2" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	if st.StreamMode == "full-stream" {
		t.Fatalf("per-eval limits should demote: %+v", st)
	}
}

func TestStreamExplainVerdict(t *testing.T) {
	q := compileStream(t, `count(//item)`)
	ex := q.Explain()
	for _, want := range []string{"streaming: mode=full-stream", "stream plan: count //item", "projection:"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("explain missing %q:\n%s", want, ex)
		}
	}
	q = compileStream(t, `//item/..`)
	ex = q.Explain()
	if !strings.Contains(ex, "mode=materialize") || !strings.Contains(ex, "stream plan: none") ||
		!strings.Contains(ex, "projection: none") {
		t.Fatalf("bail explain:\n%s", ex)
	}
}

func TestStreamParseErrorParity(t *testing.T) {
	bad := `<site><item></site>`
	_, wantErr := ParseXML(bad)
	if wantErr == nil {
		t.Fatal("expected parse error")
	}
	for _, opts := range [][]Option{nil, {WithStreamEval(false)}, {WithStreamEval(false), WithProjection(false)}} {
		q := compileStream(t, `count(//item)`, opts...)
		_, err := q.EvalReader(context.Background(), strings.NewReader(bad))
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("mode %v: err %v, want %v", q.Mode(), err, wantErr)
		}
	}
}

// TestEvalReaderParseErrorReports: reading the document is part of the
// evaluation, so an EvalReader whose parse fails is a failed evaluation on
// every surface — the reused stats struct is overwritten (no numbers left
// over from the previous, successful run), the tracer sees a balanced eval
// phase, and the registry counts one evaluation and one error, with its
// latency observed — on all three tiers.
func TestEvalReaderParseErrorReports(t *testing.T) {
	const good, bad = `<r><item n="1"/><item n="2"/></r>`, `<r><item n="1"></r>`
	for _, tier := range []struct {
		mode string
		opts []Option
	}{
		{"full-stream", nil},
		{"projected", []Option{WithStreamEval(false)}},
		{"materialize", []Option{WithStreamEval(false), WithProjection(false)}},
	} {
		q := compileStream(t, `count(//item)`, tier.opts...)
		var st EvalStats
		if out, err := q.EvalReader(context.Background(), strings.NewReader(good), WithStats(&st)); err != nil || out != "2" {
			t.Fatalf("%s: good run = %q, %v", tier.mode, out, err)
		}
		if st.StreamMode != tier.mode || st.BytesScanned != int64(len(good)) {
			t.Fatalf("%s: good run stats: %+v", tier.mode, st)
		}

		tr := &Collector{}
		before := MetricsSnapshot()
		_, err := q.EvalReader(context.Background(), strings.NewReader(bad), WithStats(&st), WithTracer(tr))
		after := MetricsSnapshot()
		if err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("%s: bad run err = %v", tier.mode, err)
		}
		// The scan stops inside the mismatched </r>, 18 bytes in.
		want := EvalStats{StreamMode: tier.mode, BytesScanned: 18, Wall: st.Wall}
		if st != want {
			t.Errorf("%s: stats after a failed parse:\n got %+v\nwant %+v", tier.mode, st, want)
		}
		ev := tr.Events()
		if len(ev) != 2 || ev[0].Kind != PhaseBegin || ev[1].Kind != PhaseEnd || ev[0].Name != "eval" || ev[1].Name != "eval" {
			t.Errorf("%s: events after a failed parse: %v", tier.mode, ev)
		}
		if d := after.Evals - before.Evals; d != 1 {
			t.Errorf("%s: Evals moved by %d, want 1", tier.mode, d)
		}
		if d := after.EvalErrors - before.EvalErrors; d != 1 {
			t.Errorf("%s: EvalErrors moved by %d, want 1", tier.mode, d)
		}
		if d := after.EvalLatency.Count - before.EvalLatency.Count; d != 1 {
			t.Errorf("%s: EvalLatency observed %d times, want 1", tier.mode, d)
		}
	}
}

func TestParseXMLReaderParity(t *testing.T) {
	d1, err := ParseXML(streamTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseXMLReader(strings.NewReader(streamTestDoc))
	if err != nil {
		t.Fatal(err)
	}
	if d1.String() != d2.String() {
		t.Fatalf("reader parse diverges:\n%s\n%s", d1, d2)
	}
}

func TestCompileStreamUpdateProgram(t *testing.T) {
	src := `update in /site delete nodes //item`
	if _, err := Compile(src); err != nil {
		t.Skipf("update grammar unavailable: %v", err)
	}
	q, err := CompileStream(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode() != StreamMaterialize {
		t.Fatalf("update program mode %v", q.Mode())
	}
	if _, err := q.EvalReader(context.Background(), strings.NewReader(streamTestDoc)); err == nil {
		t.Fatal("EvalReader on update program should error")
	}
}

// TestParseProjectedWithoutProjectionIsFrozen pins the doc comment's
// promise for the no-projection case: the parent axis defeats the analysis,
// so ParseProjected parses the whole document — and still returns it
// frozen, which shows as an index-served probe.
func TestParseProjectedWithoutProjectionIsFrozen(t *testing.T) {
	q := compileStream(t, `count(//item[@id = 'i1']) + count(//item/..)`)
	if q.proj != nil {
		t.Fatalf("query unexpectedly projectable: %s", q.proj)
	}
	doc, err := q.ParseProjected(strings.NewReader(streamTestDoc))
	if err != nil {
		t.Fatal(err)
	}
	var st EvalStats
	out, err := q.EvalString(context.Background(), doc, WithStats(&st))
	if err != nil || out != "2" {
		t.Fatalf("eval = %q, %v; want 2", out, err)
	}
	if st.IndexHits == 0 {
		t.Fatalf("no index hit on the tree ParseProjected returned (not frozen?): %+v", st)
	}
}
