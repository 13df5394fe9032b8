package xq_test

import (
	"context"
	"strings"
	"testing"

	"lopsided/xq"
)

func mustDoc(t *testing.T, src string) *xq.Node {
	t.Helper()
	doc, err := xq.ParseXML(src)
	if err != nil {
		t.Fatalf("ParseXML: %v", err)
	}
	return doc
}

func serialize(t *testing.T, n *xq.Node) string {
	t.Helper()
	return n.String()
}

func TestTransformBasicStatements(t *testing.T) {
	cases := []struct {
		name, prog, in, want string
	}{
		{"insert-into", `insert <c/> into /a`, `<a><b/></a>`, `<a><b/><c/></a>`},
		{"insert-before", `insert <c/> before /a/b[2]`, `<a><b id="1"/><b id="2"/></a>`,
			`<a><b id="1"/><c/><b id="2"/></a>`},
		{"insert-after", `insert <c/> after /a/b[1]`, `<a><b id="1"/><b id="2"/></a>`,
			`<a><b id="1"/><c/><b id="2"/></a>`},
		{"delete", `delete //b`, `<a><b/><c/><b/></a>`, `<a><c/></a>`},
		{"delete-empty-noop", `delete //zzz`, `<a><b/></a>`, `<a><b/></a>`},
		{"replace", `replace /a/b with <c>done</c>`, `<a><b>old</b></a>`, `<a><c>done</c></a>`},
		{"replace-with-atomics", `replace /a/b with ("x", "y")`, `<a><b/></a>`, `<a>x y</a>`},
		{"rename", `rename /a/b as "c"`, `<a><b v="1"/></a>`, `<a><c v="1"/></a>`},
		{"rename-attr", `rename /a/b/@v as "w"`, `<a><b v="1"/></a>`, `<a><b w="1"/></a>`},
		{"delete-attr", `delete /a/b/@v`, `<a><b v="1" k="2"/></a>`, `<a><b k="2"/></a>`},
		{"replace-attr", `replace /a/b/@v with attribute v {"9"}`,
			`<a><b v="1"/></a>`, `<a><b v="9"/></a>`},
		{"insert-attr-into", `insert attribute id {"x"} into /a/b`,
			`<a><b/></a>`, `<a><b id="x"/></a>`},
		{"sequence", `insert <c/> into /a; delete /a/b; rename /a as "r"`,
			`<a><b/></a>`, `<r><c/></r>`},
		{"for-where", `for $b in //b where $b/@k = "yes" return delete $b`,
			`<a><b k="yes"/><b k="no"/><b k="yes"/></a>`, `<a><b k="no"/></a>`},
		{"for-nested-block", `for $b in //b return (rename $b as "x"; insert <y/> into $b)`,
			`<a><b/><b/></a>`, `<a><x><y/></x><x><y/></x></a>`},
		{"prolog-function", `declare function local:tag($n) { <t v="{$n}"/> };
			insert local:tag(7) into /a`, `<a/>`, `<a><t v="7"/></a>`},
		{"prolog-variable", `declare variable $n := "c"; rename /a/b as $n`,
			`<a><b/></a>`, `<a><c/></a>`},
		{"snapshot-count", `for $b in //b return insert <b/> into /a`,
			`<a><b/><b/></a>`, `<a><b/><b/><b/><b/></a>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up, err := xq.CompileUpdate(tc.prog)
			if err != nil {
				t.Fatalf("CompileUpdate: %v", err)
			}
			doc := mustDoc(t, tc.in)
			before := serialize(t, doc)
			out, err := up.Transform(context.Background(), doc)
			if err != nil {
				t.Fatalf("Transform: %v", err)
			}
			if got := serialize(t, out); got != tc.want {
				t.Errorf("result = %s, want %s", got, tc.want)
			}
			if got := serialize(t, doc); got != before {
				t.Errorf("source snapshot mutated: %s, was %s", got, before)
			}
		})
	}
}

func TestTransformEagerMatchesCOW(t *testing.T) {
	prog := `for $b in //b return (insert <k/> before $b; rename $b as "z");
		delete //c; replace /a/d with <dd>x</dd>`
	in := `<a><b/><c/><b/><d>old</d><c/></a>`
	up, err := xq.CompileUpdate(prog)
	if err != nil {
		t.Fatalf("CompileUpdate: %v", err)
	}
	cow, err := up.Transform(nil, mustDoc(t, in))
	if err != nil {
		t.Fatalf("cow Transform: %v", err)
	}
	eager, err := up.Transform(nil, mustDoc(t, in), xq.WithEagerCopyApply(true))
	if err != nil {
		t.Fatalf("eager Transform: %v", err)
	}
	if cg, eg := serialize(t, cow), serialize(t, eager); cg != eg {
		t.Errorf("COW result %s != eager result %s", cg, eg)
	}
}

func TestTransformStats(t *testing.T) {
	up := xq.MustCompileUpdate(`delete /a/b[2]; insert <n/> into /a/c`)
	doc := xq.Freeze(mustDoc(t, `<a><b/><b/><c><d/></c><e><f/></e></a>`))
	var st xq.EvalStats
	out, err := up.Transform(context.Background(), doc, xq.WithStats(&st))
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if st.UpdatesApplied != 2 {
		t.Errorf("UpdatesApplied = %d, want 2", st.UpdatesApplied)
	}
	if st.SpineNodes == 0 {
		t.Errorf("SpineNodes = 0, want > 0 (spine must be materialized)")
	}
	// The untouched <e><f/></e> subtree must still be shared, so the spine
	// is strictly smaller than the whole tree.
	if st.SpineNodes >= 8 {
		t.Errorf("SpineNodes = %d, want < 8 (off-spine subtrees must stay shared)", st.SpineNodes)
	}
	if !strings.Contains(st.String(), "upd=") {
		t.Errorf("stats string %q missing upd= segment", st.String())
	}
	if got := serialize(t, out); got != `<a><b/><c><d/><n/></c><e><f/></e></a>` {
		t.Errorf("result = %s", got)
	}
}

// TestTransformNilDocResetsStats: a Transform refused for want of a context
// tree reports like any failed evaluation — a reused stats struct shows that
// call's (empty) consumption and budgets, not the previous call's.
func TestTransformNilDocResetsStats(t *testing.T) {
	up := xq.MustCompileUpdate(`delete /a/b`, xq.WithLimits(xq.Limits{MaxSteps: 1000}))
	var st xq.EvalStats
	if _, err := up.Transform(context.Background(), mustDoc(t, `<a><b/></a>`), xq.WithStats(&st)); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if st.Steps == 0 || st.UpdatesApplied != 1 {
		t.Fatalf("first call: %+v", st)
	}
	_, err := up.Transform(context.Background(), nil, xq.WithStats(&st))
	if got := xq.ErrorCode(err); got != "XPDY0002" {
		t.Fatalf("error code = %s (%v), want XPDY0002", got, err)
	}
	if st.Steps != 0 || st.UpdatesApplied != 0 || st.SpineNodes != 0 || st.MaxSteps != 1000 {
		t.Errorf("nil-doc call left the last run's stats: %+v", st)
	}
}

func TestTransformErrorCodes(t *testing.T) {
	cases := []struct {
		name, prog, in, code string
	}{
		{"empty-insert-target", `insert <c/> into /nope`, `<a/>`, "XUDY0027"},
		{"empty-replace-target", `replace /nope with <c/>`, `<a/>`, "XUDY0027"},
		{"multi-target", `rename //b as "c"`, `<a><b/><b/></a>`, "XUDY0027"},
		{"atomic-target", `delete (1, 2)`, `<a/>`, "XUTY0007"},
		{"insert-into-text", `insert <c/> into /a/text()`, `<a>hi</a>`, "XUTY0005"},
		{"insert-before-root", `insert <c/> before /`, `<a/>`, "XUTY0006"},
		{"replace-root", `replace (/) with <c/>`, `<a/>`, "XUTY0008"},
		{"rename-text", `rename /a/text() as "x"`, `<a>hi</a>`, "XUTY0012"},
		{"attr-content-before", `insert attribute x {"1"} before /a/b`, `<a><b/></a>`, "XUTY0004"},
		{"replace-elem-with-attr", `replace /a/b with attribute x {"1"}`, `<a><b/></a>`, "XUTY0004"},
		{"replace-attr-with-elem", `replace /a/@v with <c/>`, `<a v="1"/>`, "XUTY0008"},
		{"double-replace", `replace /a/b with <c/>; replace /a/b with <d/>`,
			`<a><b/></a>`, "XUDY0016"},
		{"double-rename", `rename /a/b as "c"; rename /a/b as "d"`, `<a><b/></a>`, "XUDY0015"},
		{"foreign-target", `delete $other`, `<a/>`, "XUDY0027"},
	}
	other := mustDoc(t, `<x><y/></x>`)
	vars := map[string]xq.Sequence{"other": xq.Singleton(xq.NewNodeItem(other.Children()[0]))}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up, err := xq.CompileUpdate(tc.prog)
			if err != nil {
				t.Fatalf("CompileUpdate: %v", err)
			}
			_, err = up.Transform(nil, mustDoc(t, tc.in), xq.WithVars(vars))
			if err == nil {
				t.Fatalf("Transform succeeded, want %s", tc.code)
			}
			if got := xq.ErrorCode(err); got != tc.code {
				t.Errorf("error code = %s (%v), want %s", got, err, tc.code)
			}
		})
	}
}

func TestTransformKindMismatch(t *testing.T) {
	q := xq.MustCompile(`//b`)
	if _, err := q.Transform(nil, mustDoc(t, `<a/>`)); err == nil {
		t.Error("Transform on a query program should fail")
	}
	up := xq.MustCompileUpdate(`delete //b`)
	if _, err := up.Eval(nil, mustDoc(t, `<a/>`)); err == nil {
		t.Error("Eval on an update program should fail")
	}
	if !up.IsUpdate() || q.IsUpdate() {
		t.Error("IsUpdate misreports program kinds")
	}
}

func TestCompileUpdateCachedSeparateNamespace(t *testing.T) {
	// Source text that is valid as both a query and an update program must
	// not collide in the plan cache. `delete //b` is an update statement AND
	// a legal query (the path child::delete, then //b).
	src := `delete //b`
	up, err := xq.CompileUpdateCached(src)
	if err != nil {
		t.Fatalf("CompileUpdateCached: %v", err)
	}
	if !up.IsUpdate() {
		t.Error("cached update plan lost its kind")
	}
	q, err := xq.CompileCached(src)
	if err != nil {
		t.Fatalf("CompileCached: %v", err)
	}
	if q.IsUpdate() {
		t.Error("query compile hit the cached update plan")
	}
	// Second fetch is a hit and still an update program.
	up2, err := xq.CompileUpdateCached(src)
	if err != nil {
		t.Fatalf("CompileUpdateCached(2): %v", err)
	}
	var st xq.EvalStats
	if _, err := up2.Transform(nil, mustDoc(t, `<a><b/></a>`), xq.WithStats(&st)); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if !st.PlanCacheHit {
		t.Error("second CompileUpdateCached should report a plan-cache hit")
	}
}

func TestUpdateExplain(t *testing.T) {
	up := xq.MustCompileUpdate(`declare variable $n := "c";
		for $b in //b where $b/@k return rename $b as $n; delete //stale`)
	exp := up.Explain()
	for _, want := range []string{"pending-update plan:", "(for-each $b", "(rename", "(delete", "(where"} {
		if !strings.Contains(exp, want) {
			t.Errorf("Explain missing %q:\n%s", want, exp)
		}
	}
	if strings.Contains(exp, "body:") {
		t.Errorf("update Explain should print the plan, not a body:\n%s", exp)
	}
}

func TestTransformLimitsApply(t *testing.T) {
	up := xq.MustCompileUpdate(`for $i in 1 to 1000000 return insert <x/> into /a`)
	_, err := up.Transform(nil, mustDoc(t, `<a/>`), xq.WithLimits(xq.Limits{MaxSteps: 500}))
	if err == nil || !xq.IsLimitError(err) {
		t.Fatalf("want limit error, got %v", err)
	}
}

func TestTransformChainsSnapshots(t *testing.T) {
	// Both snapshots stay live: transform the output again, query the input.
	up := xq.MustCompileUpdate(`insert <gen/> into /a`)
	doc := xq.Freeze(mustDoc(t, `<a/>`))
	v1, err := up.Transform(nil, doc)
	if err != nil {
		t.Fatalf("Transform v1: %v", err)
	}
	v2, err := up.Transform(nil, v1)
	if err != nil {
		t.Fatalf("Transform v2: %v", err)
	}
	if got := serialize(t, v2); got != `<a><gen/><gen/></a>` {
		t.Errorf("v2 = %s", got)
	}
	if got := serialize(t, v1); got != `<a><gen/></a>` {
		t.Errorf("v1 mutated: %s", got)
	}
	if got := serialize(t, doc); got != `<a/>` {
		t.Errorf("v0 mutated: %s", got)
	}
	q := xq.MustCompile(`count(//gen)`)
	for i, want := range map[*xq.Node]string{doc: "0", v1: "1", v2: "2"} {
		got, err := q.EvalString(nil, i)
		if err != nil || got != want {
			t.Errorf("count(//gen) on snapshot = %q (%v), want %q", got, err, want)
		}
	}
}
