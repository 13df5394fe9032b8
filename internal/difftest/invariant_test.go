package difftest

import (
	"context"
	"testing"

	"lopsided/xq"
)

// invariantDoc is the context document of the invariant-call cases: three
// children whose string values sort the other way round from their order.
const invariantDoc = `<r><a n="1">3</a><a n="2">2</a><b n="3">1</b></r>`

// invariantProlog declares the zero-arity functions the cases call: one over
// a prolog global (invariant at O1 and above), one that constructs (never
// invariant), one that raises, one whose value is atomic, and one whose
// nodes are out of document order.
const invariantProlog = `declare variable $top := /r;
declare variable $s := (3, 1, 2);
declare function local:m() { $top/* };
declare function local:c() { <c/> };
declare function local:bad() { error("zero") };
declare function local:v() { $s };
declare function local:u() { ($top/b, $top/a) };
`

// TestInvariantCallMatrix runs the calls an invariant function's memo slot
// could get wrong through every configuration, each answer worked out by
// hand. O0 never marks a function, so it runs every body; O1 and O2 run an
// invariant body once per evaluation and hand its value out shared, like a
// variable's, to consumers that must copy before they write.
func TestInvariantCallMatrix(t *testing.T) {
	const p = invariantProlog
	cases := []struct{ src, want, code string }{
		// Node identity survives the memo: the same nodes every call.
		{p + `(count(local:m()), local:m()[1] is local:m()[1], name(local:m()[3]))`, "3 true b", ""},
		{p + `/r/a[local:m()[2] is .]/@n/string()`, "2", ""},
		// A constructing body is refused: every call a new node.
		{p + `(local:c() is local:c(), count((local:c(), local:c())/self::c))`, "false 2", ""},
		// A raising body raises only where it is called, and every time.
		{p + `(for $x in () return local:bad(), "ok")`, "ok", ""},
		{p + `(for $x in local:m()[5] return local:bad(), count(local:m()))`, "3", ""},
		{p + `(if (count(local:m()) > 5) then local:bad() else "no", "ok")`, "no ok", ""},
		{p + `(try { local:bad() } catch ($c, $m) { $m }, try { local:bad() } catch ($c, $m) { $c })`, "zero FOER0000", ""},
		{p + `(local:m()[1]/@n/string(), local:bad())`, "", "FOER0000"},
		// A result that fails the declared type is an error, not a value.
		{`declare variable $g := "s"; declare function local:t() as xs:integer { $g }; ` +
			`(try { local:t() } catch ($c, $m) { $c }, try { local:t() } catch ($c, $m) { $c })`, "XPTY0004 XPTY0004", ""},
		// A global the prolog has not bound yet is an error the first call
		// cannot keep.
		{`declare variable $a := try { local:g() } catch ($c, $m) { $c }; declare variable $b := 5; ` +
			`declare function local:g() { $b }; ($a, local:g(), local:g())`, "XPST0008 5 5", ""},
		// A body that catches that error itself is refused: its first value
		// is not the value of later calls.
		{`declare variable $a := local:h(); declare variable $b := 5; ` +
			`declare function local:h() { try { $b } catch ($c, $m) { $c } }; ($a, local:h())`, "XPST0008 5", ""},
		// The re-read law: reads that copy, reverse, sort or filter the
		// shared value leave the next read as it was.
		{p + `(local:m(), "|", local:m()[last()], reverse(local:m()), ` +
			`for $x in local:m() order by string($x) descending return $x, "|", local:m())`,
			`<a n="1">3</a> <a n="2">2</a> <b n="3">1</b> | <b n="3">1</b> <b n="3">1</b> <a n="2">2</a> <a n="1">3</a> ` +
				`<a n="1">3</a> <a n="2">2</a> <b n="3">1</b> | <a n="1">3</a> <a n="2">2</a> <b n="3">1</b>`, ""},
		{p + `(local:v()[. > 1], local:v()[2], reverse(local:v()), (local:v(), 9), "|", local:v())`,
			"3 2 1 2 1 3 3 1 2 9 | 3 1 2", ""},
		{p + `(local:u()/@n/string(), "|", local:u()/@n/string(), "|", for $x in local:u() return $x/@n/string())`,
			"1 2 3 | 1 2 3 | 3 1 2", ""},
		{p + `(for $i in 1 to 3 return count(local:m()[position() <= $i]), local:v()[position() = (1, 3)])`,
			"1 2 3 3 2", ""},
	}
	for i, tc := range cases {
		c := Case{Seed: int64(-4000 - i), Src: tc.src, Doc: invariantDoc}
		if got := Eval(c, Matrix()[0]); got.Out != tc.want || got.Code != tc.code {
			t.Errorf("%s\n\tgot %q (code %q), want %q (code %q)", tc.src, got.Out, got.Code, tc.want, tc.code)
		}
		if d := Check(c, Matrix()); d != nil {
			t.Errorf("%v", d)
		}
	}
}

// TestInvariantCallEmissions: the memo skips a body, never an event the host
// can count. Every call to an invariant function is a FuncCall at every
// level, and the bodies that emit — a trace, a FLWOR — are refused, so their
// TraceHit and ClauseIter events come once per call.
func TestInvariantCallEmissions(t *testing.T) {
	for _, tc := range []struct {
		src  string
		kind xq.EventKind
		want int
	}{
		{invariantProlog + `(local:m(), local:m(), for $i in 1 to 3 return local:m()[$i])`, xq.FuncCall, 5},
		{`declare function local:t() { trace("t", 1) }; (local:t(), local:t(), local:t())`, xq.TraceHit, 3},
		{`declare function local:t() { trace("t", 1) }; (local:t(), local:t(), local:t())`, xq.FuncCall, 3},
		{`declare function local:f() { for $x in (1, 2) return $x }; (local:f(), local:f())`, xq.ClauseIter, 4},
	} {
		for _, lvl := range []xq.OptLevel{xq.O0, xq.O1, xq.O2} {
			q, err := xq.Compile(tc.src, xq.WithOptLevel(lvl))
			if err != nil {
				t.Fatalf("%s: %v", tc.src, err)
			}
			doc, err := contextDoc(Case{Doc: invariantDoc})
			if err != nil {
				t.Fatal(err)
			}
			var events xq.Collector
			if _, err := q.EvalString(context.Background(), doc, xq.WithTracer(&events)); err != nil {
				t.Fatalf("O%d %s: %v", lvl, tc.src, err)
			}
			if got := len(events.OfKind(tc.kind)); got != tc.want {
				t.Errorf("O%d %s: %d %v events, want %d", lvl, tc.src, got, tc.kind, tc.want)
			}
		}
	}
}
