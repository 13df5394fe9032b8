package xq_test

// The compile pipeline and the evaluation envelope, pinned from outside.
// testdata/envelope_pinned.golden was captured from the commit before an
// update program became an *ast.Module with statements, Eval and Transform
// came to share one interpreter prologue, EvalReader became a run body and
// the tree layers began counting into obs directly (UPDATE_GOLDEN=1 go test
// -run TestPinnedEnvelope ./xq rewrites it). Every cell — a program × an
// optimizer level × shapes on/off — records EXPLAIN, the optimizer's Stats,
// the result or error code, the tracer's event sequence and the exact
// EvalStats fields; the file ends with the sorted key set of the metrics
// snapshot's JSON. All of it must stay byte-identical.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lopsided/xq"
)

const pinnedDoc = `<lib owner="ann"><book id="b1" year="2001"><title>One</title><price>10</price></book>` +
	`<book id="b2" year="2004" draft="yes"><title>Two</title><price>25</price></book>` +
	`<book id="b3"><title>Three</title><price>7</price><note>n</note></book><mag id="m1"/></lib>`

type pinnedProgram struct {
	name   string
	update bool
	src    string
	limits xq.Limits
	vars   map[string]xq.Sequence
}

var pinnedPrograms = []pinnedProgram{
	// Queries.
	{name: "q-arith", src: `1 + 2 * 3`},
	{name: "q-path-count", src: `count(//book)`},
	{name: "q-attr-pred", src: `//book[@id = "b2"]/title`},
	{name: "q-child-path", src: `/lib/book/title`},
	{name: "q-flwor", src: `for $b in /lib/book where $b/price > 8 return string($b/title)`},
	{name: "q-flwor-order", src: `for $b in //book order by number($b/price) descending return string($b/@id)`},
	{name: "q-let-dead", src: `let $dead := "3" cast as xs:string return count(//title)`},
	{name: "q-let-dead-trace", src: `let $t := trace("gone", 1) return 2`},
	{name: "q-trace-live", src: `for $i in 1 to 2 return trace("i", $i)`},
	{name: "q-prolog-func", src: `declare function local:sq($n as xs:integer) { $n * $n }; sum(for $i in 1 to 4 return local:sq($i))`},
	{name: "q-prolog-recursive", src: `declare function local:f($n) { if ($n le 0) then 0 else $n + local:f($n - 1) }; local:f(5)`},
	{name: "q-prolog-global", src: `declare variable $floor := 8; count(//book[price > $floor])`},
	{name: "q-prolog-external", src: `declare variable $who external; concat("hi ", $who)`,
		vars: map[string]xq.Sequence{"who": xq.Singleton(xq.String("bob"))}},
	{name: "q-prolog-external-missing", src: `declare variable $who external; concat("hi ", $who)`},
	{name: "q-free-var", src: `$x + 1`, vars: map[string]xq.Sequence{"x": xq.Singleton(xq.Integer(41))}},
	{name: "q-construct", src: `<r n="{count(//book)}">{for $b in //book return <t>{string($b/title)}</t>}</r>`},
	{name: "q-construct-share", src: `let $b := /lib/book[1] return <w>{$b}{$b}</w>`},
	{name: "q-quantified", src: `some $b in //book satisfies $b/@draft = "yes"`},
	{name: "q-if-ebv", src: `if (//mag) then "has" else "none"`},
	{name: "q-typeswitch", src: `typeswitch (//book[1]/price) case element() return "el" default return "other"`},
	{name: "q-descendant-fuse", src: `count(//book//title)`},
	{name: "q-parent-axis", src: `string(//title[. = "Two"]/../@id)`},
	{name: "q-union-order", src: `for $n in (//price | //title)[position() le 3] return name($n)`},
	{name: "q-string-fns", src: `string-join(for $t in //title return upper-case($t), ",")`},
	{name: "q-static-shape-error", src: `1 + "a"`},
	{name: "q-static-shape-error-in-func", src: `declare function local:bad() { 1 + "a" }; count(//book)`},
	{name: "q-dynamic-div0", src: `1 div 0`},
	{name: "q-dynamic-is", src: `1 is 2`},
	{name: "q-dynamic-in-loop", src: `for $b in //book return xs:integer($b/title)`},
	{name: "q-error-fn", src: `error("MY0001", "boom")`},
	{name: "q-limit-steps", src: `count(for $i in 1 to 100000 return $i * 2)`, limits: xq.Limits{MaxSteps: 500}},
	{name: "q-limit-nodes", src: `for $i in 1 to 100 return <x/>`, limits: xq.Limits{MaxNodes: 10}},
	{name: "q-limit-depth", src: `declare function local:f($n) { local:f($n + 1) }; local:f(0)`, limits: xq.Limits{MaxDepth: 50}},
	{name: "q-parse-error", src: `let $x := return 1`},
	{name: "q-dup-function", src: `declare function local:f() { 1 }; declare function local:f() { 2 }; local:f()`},
	{name: "q-delete-is-a-path", src: `count(delete)`},
	// Updates: each statement kind, blocks, for/where, prolog, errors.
	{name: "u-insert-into", update: true, src: `insert <c/> into /lib`},
	{name: "u-insert-before", update: true, src: `insert <c/> before /lib/book[2]`},
	{name: "u-insert-after", update: true, src: `insert <c/> after /lib/book[1]`},
	{name: "u-insert-attr", update: true, src: `insert attribute seen {"1"} into /lib/mag`},
	{name: "u-delete", update: true, src: `delete //book[@draft = "yes"]`},
	{name: "u-delete-empty", update: true, src: `delete //zzz`},
	{name: "u-replace", update: true, src: `replace /lib/mag with <mag id="m2">new</mag>`},
	{name: "u-replace-atomics", update: true, src: `replace /lib/book[3]/note with ("x", 1 + 1)`},
	{name: "u-rename", update: true, src: `rename /lib/mag as "zine"`},
	{name: "u-rename-attr", update: true, src: `rename /lib/@owner as concat("own", "er2")`},
	{name: "u-sequence", update: true, src: `insert <c/> into /lib; delete /lib/mag; rename /lib as "r"`},
	{name: "u-for-where", update: true, src: `for $b in //book where $b/price > 8 return delete $b/price`},
	{name: "u-for-block", update: true, src: `for $b in //book return (rename $b as "x"; insert <y n="{1 + 1}"/> into $b)`},
	{name: "u-block", update: true, src: `(delete //note; insert <end/> into /lib)`},
	{name: "u-prolog-func", update: true, src: `declare function local:tag($n as xs:integer) { <t v="{$n * 2}"/> }; insert local:tag(7) into /lib`},
	{name: "u-prolog-global", update: true, src: `declare variable $n := "shelf"; rename /lib as $n`},
	{name: "u-prolog-external", update: true, src: `declare variable $n external; rename /lib as $n`,
		vars: map[string]xq.Sequence{"n": xq.Singleton(xq.String("ext"))}},
	{name: "u-prolog-external-missing", update: true, src: `declare variable $n external; rename /lib as $n`},
	{name: "u-dead-let-trace", update: true, src: `insert (let $t := trace("gone", 1) return <k/>) into /lib`},
	{name: "u-trace-live", update: true, src: `for $b in //book return insert <s>{trace("b", string($b/@id))}</s> into $b`},
	{name: "u-shape-error-stays-dynamic", update: true, src: `insert <c>{1 + "a"}</c> into /lib`},
	{name: "u-missing-target", update: true, src: `insert <x/> into /lib/nope`},
	{name: "u-many-targets", update: true, src: `rename //book as "b"`},
	{name: "u-replace-conflict", update: true, src: `replace /lib/mag with <a/>; replace /lib/mag with <b/>`},
	{name: "u-replace-root", update: true, src: `replace /lib with <x/>`},
	{name: "u-delete-non-node", update: true, src: `delete (1, 2)`},
	{name: "u-dynamic-div0", update: true, src: `for $b in //book return insert <p>{1 div 0}</p> into $b`},
	{name: "u-limit-steps", update: true, src: `for $i in 1 to 100000 return insert <x/> into /lib`, limits: xq.Limits{MaxSteps: 500}},
	{name: "u-limit-nodes", update: true, src: `for $i in 1 to 100 return insert <x/> into /lib`, limits: xq.Limits{MaxNodes: 10}},
	{name: "u-parse-error", update: true, src: `insert <c/> /lib`},
	{name: "u-query-is-not-a-stmt", update: true, src: `count(//book)`},
}

// pinnedEvent renders one tracer event without its duration.
func pinnedEvent(e xq.Event) string {
	e.Elapsed = 0
	return e.String()
}

func pinnedStats(st xq.EvalStats) string {
	return fmt.Sprintf("steps=%d nodes=%d output-bytes=%d shape-elided=%d updates=%d spine=%d stream=%q scanned=%d pruned=%d",
		st.Steps, st.Nodes, st.OutputBytes, st.ShapeChecksElided, st.UpdatesApplied, st.SpineNodes,
		st.StreamMode, st.BytesScanned, st.NodesPruned)
}

func pinnedOutcome(out string, err error) string {
	if err != nil {
		return fmt.Sprintf("error %s static=%v", xq.ErrorCode(err), xq.IsStaticError(err))
	}
	return "ok " + out
}

// pinnedCell compiles and runs one program under one configuration and
// renders everything observable about it.
func pinnedCell(t *testing.T, p pinnedProgram, lvl xq.OptLevel, shapes bool) string {
	t.Helper()
	var b strings.Builder
	tr := &xq.Collector{}
	var st xq.EvalStats
	opts := []xq.Option{xq.WithOptLevel(lvl), xq.WithShapes(shapes), xq.WithTracer(tr),
		xq.WithStats(&st), xq.WithLimits(p.limits), xq.WithVars(p.vars)}
	compile := xq.Compile
	if p.update {
		compile = xq.CompileUpdate
	}
	q, err := compile(p.src, opts...)
	if err != nil {
		fmt.Fprintf(&b, "compile: %s\n", pinnedOutcome("", err))
	} else {
		fmt.Fprintf(&b, "optimizer: %+v\n", q.Stats)
		fmt.Fprintf(&b, "explain:\n%s", q.Explain())
		doc, derr := xq.ParseXML(pinnedDoc)
		if derr != nil {
			t.Fatal(derr)
		}
		before := doc.String()
		if p.update {
			out, err := q.Transform(context.Background(), doc)
			text := ""
			if err == nil {
				text = out.String()
			}
			fmt.Fprintf(&b, "transform: %s\n", pinnedOutcome(text, err))
			if after := doc.String(); after != before {
				t.Errorf("%s: Transform mutated its input:\n%s", p.name, after)
			}
		} else {
			out, err := q.EvalString(context.Background(), doc)
			fmt.Fprintf(&b, "eval: %s\n", pinnedOutcome(out, err))
		}
		fmt.Fprintf(&b, "evalstats: %s\n", pinnedStats(st))
	}
	b.WriteString("events:\n")
	for _, e := range tr.Events() {
		fmt.Fprintf(&b, "  %s\n", pinnedEvent(e))
	}
	return b.String()
}

// pinnedWrongKind calls each program kind through the other kind's entry
// point: the envelope refuses before any phase event or metric.
func pinnedWrongKind(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	doc, err := xq.ParseXML(pinnedDoc)
	if err != nil {
		t.Fatal(err)
	}
	tr := &xq.Collector{}
	st := xq.EvalStats{Steps: -1}
	_, err = xq.MustCompileUpdate(`delete //note`).Eval(context.Background(), doc, xq.WithTracer(tr), xq.WithStats(&st))
	fmt.Fprintf(&b, "Eval on update: %s: %v | events=%d stats-untouched=%v\n", pinnedOutcome("", err), err, len(tr.Events()), st.Steps == -1)
	_, err = xq.MustCompile(`count(//note)`).Transform(context.Background(), doc, xq.WithTracer(tr), xq.WithStats(&st))
	fmt.Fprintf(&b, "Transform on query: %s: %v | events=%d stats-untouched=%v\n", pinnedOutcome("", err), err, len(tr.Events()), st.Steps == -1)
	_, err = xq.MustCompileUpdate(`delete //note`).Transform(context.Background(), nil, xq.WithTracer(tr), xq.WithStats(&st))
	fmt.Fprintf(&b, "Transform on nil doc: %s: %v | %s\n", pinnedOutcome("", err), err, pinnedStats(st))
	for _, e := range tr.Events() {
		fmt.Fprintf(&b, "  %s\n", pinnedEvent(e))
	}
	return b.String()
}

// pinnedReaders runs one well-formed document through EvalReader on each
// tier, with one stats struct reused across the calls.
func pinnedReaders(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	var st xq.EvalStats
	for _, src := range []string{`count(//book)`, `sum(//book/price)`, `count(//title/..)`,
		`for $b in //book return trace("b", string($b/@id))`} {
		for _, lim := range []xq.Limits{{}, {MaxSteps: 100000}} {
			tr := &xq.Collector{}
			q, err := xq.CompileStream(src)
			if err != nil {
				t.Fatal(err)
			}
			out, err := q.EvalReader(context.Background(), strings.NewReader(pinnedDoc),
				xq.WithStats(&st), xq.WithTracer(tr), xq.WithLimits(lim))
			fmt.Fprintf(&b, "--- %s | max-steps=%d | mode=%s\n", src, lim.MaxSteps, q.Mode())
			fmt.Fprintf(&b, "reader: %s\nevalstats: %s max-steps=%d\nevents:\n", pinnedOutcome(out, err), pinnedStats(st), st.MaxSteps)
			for _, e := range tr.Events() {
				fmt.Fprintf(&b, "  %s\n", pinnedEvent(e))
			}
		}
	}
	return b.String()
}

// jsonKeys lists every object key path in v, sorted.
func jsonKeys(prefix string, v any, out *[]string) {
	switch n := v.(type) {
	case map[string]any:
		for k, child := range n {
			*out = append(*out, prefix+k)
			jsonKeys(prefix+k+".", child, out)
		}
	case []any:
		for _, child := range n {
			jsonKeys(prefix+"[].", child, out)
		}
	}
}

func pinnedMetricsKeys(t *testing.T) string {
	t.Helper()
	raw, err := json.Marshal(xq.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var keys []string
	jsonKeys("", v, &keys)
	sort.Strings(keys)
	// Histogram bucket keys repeat per bucket; keep each path once.
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			uniq = append(uniq, k)
		}
	}
	return strings.Join(uniq, "\n") + "\n"
}

func TestPinnedEnvelope(t *testing.T) {
	var got bytes.Buffer
	for _, p := range pinnedPrograms {
		for _, lvl := range []xq.OptLevel{xq.O0, xq.O1, xq.O2} {
			for _, shapes := range []bool{true, false} {
				kind := "query"
				if p.update {
					kind = "update"
				}
				fmt.Fprintf(&got, "=== %s | %s | O%d shapes=%v\nsource: %s\n", p.name, kind, int(lvl), shapes, p.src)
				got.WriteString(pinnedCell(t, p, lvl, shapes))
			}
		}
	}
	got.WriteString("=== wrong entry point\n")
	got.WriteString(pinnedWrongKind(t))
	got.WriteString("=== EvalReader, well-formed input\n")
	got.WriteString(pinnedReaders(t))
	got.WriteString("=== metrics snapshot JSON keys\n")
	got.WriteString(pinnedMetricsKeys(t))

	golden := filepath.Join("testdata", "envelope_pinned.golden")
	if updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	// Report the first differing cell, not two 10 000-line dumps.
	gotCells, wantCells := strings.Split(got.String(), "=== "), strings.Split(string(want), "=== ")
	for i := 0; i < len(gotCells) && i < len(wantCells); i++ {
		if gotCells[i] != wantCells[i] {
			t.Fatalf("pinned cell changed.\n--- got ---\n=== %s--- want ---\n=== %s", gotCells[i], wantCells[i])
		}
	}
	t.Fatalf("pinned table has %d cells, golden has %d", len(gotCells), len(wantCells))
}
