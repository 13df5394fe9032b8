package xq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lopsided/internal/xmltree"
)

const apDoc = `<r>
  <item n="1" k="k0"><sub><item n="1.1" k="k1"/></sub></item>
  <item n="2" k="k1">beta</item>
  <group><item n="3" k="k0"/><other k="k0"/></group>
  <empty/>
</r>`

// TestExplainShowsAccessPaths is the ISSUE acceptance criterion: EXPLAIN
// must print IndexScan (not TreeWalk) for `//name` and `[@attr = 'v']` on
// eligible queries, and name the fallback reason for ineligible ones.
func TestExplainShowsAccessPaths(t *testing.T) {
	cases := []struct {
		src   string
		want  string
		avoid string
	}{
		{`//item`, "access path IndexScan descendant::item", "TreeWalk"},
		{`/r//item`, "access path IndexScan descendant::item", "TreeWalk"},
		{`/r/item[@k = 'k0']`, "folded [@k = 'k0']", "TreeWalk"},
		{`//item[@k = 'k1']`, "access path IndexScan descendant::item (fused // into descendant::item, folded [@k = 'k1'])", "TreeWalk"},
		{`/r/item`, "access path SynopsisPrune child::item", "IndexScan"},
		// Positional predicate blocks fusion: per-parent vs global counting.
		{`//item[2]`, "access path SynopsisPrune child::item", "IndexScan descendant"},
		// Reverse axes stay tree walks, with the reason printed.
		{`//item/ancestor::r`, "access path TreeWalk ancestor::r (ancestor axis not indexed)", ""},
		{`//*`, "access path TreeWalk", "IndexScan"},
	}
	for _, tc := range cases {
		q, err := Compile(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		plan := q.Explain()
		if !strings.Contains(plan, tc.want) {
			t.Errorf("%s: EXPLAIN missing %q:\n%s", tc.src, tc.want, plan)
		}
		if tc.avoid != "" && strings.Contains(plan, tc.avoid) {
			t.Errorf("%s: EXPLAIN unexpectedly mentions %q:\n%s", tc.src, tc.avoid, plan)
		}
	}
	// O0 never plans access paths.
	q, err := Compile(`//item`, WithOptLevel(O0))
	if err != nil {
		t.Fatal(err)
	}
	if plan := q.Explain(); strings.Contains(plan, "IndexScan") {
		t.Errorf("O0 plan mentions IndexScan:\n%s", plan)
	}
	// WithAccessPaths(false) forces walks at any level.
	q, err = Compile(`//item`, WithAccessPaths(false))
	if err != nil {
		t.Fatal(err)
	}
	if plan := q.Explain(); strings.Contains(plan, "IndexScan") {
		t.Errorf("WithAccessPaths(false) plan mentions IndexScan:\n%s", plan)
	}
}

// TestExplainPrintsFoldedPredicate: a fold is an annotation on the step's
// access path, not a rewrite of the step, so EXPLAIN's body still shows the
// predicate. When the planner removed it, this query's body read
// `(child::item [2])` — "the second item" — while the engine selected the
// second item whose k is k7. The folded predicate is not compiled (the
// probe answers it), so it contributes no note of its own.
func TestExplainPrintsFoldedPredicate(t *testing.T) {
	q, err := Compile(`//item[@k = 'k7'][2]/@k`, WithShapes(false))
	if err != nil {
		t.Fatal(err)
	}
	plan := q.Explain()
	for _, want := range []string{
		"folded-predicates=1",
		"  1:3 access path IndexScan child::item (child name step, folded [@k = 'k7'])\n" +
			"  1:22 access path TreeWalk attribute::k (attribute axis not indexed)\n",
		"body:\n  (path // (child::item [(gc:= (path (attribute::k)) \"k7\")] [2]) (attribute::k))\n",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, plan)
		}
	}
	// And the probe path still answers it: same result served and walked.
	doc, err := ParseXML(`<r><g><item k="k7"/><item k="k8"/><item k="k7"/></g><item k="k7"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, freeze := range []bool{false, true} {
		if freeze {
			Freeze(doc)
		}
		if out, err := q.EvalString(context.Background(), doc); err != nil || out != `k="k7"` {
			t.Errorf("frozen=%v: out=%q err=%v", freeze, out, err)
		}
	}
}

// TestIndexedEvalMatchesWalk evaluates a battery of path queries on frozen,
// unfrozen, and lazily-cloned documents across O0–O2 with access paths on
// and off, asserting byte-identical serialized results. This is the
// doc-order satellite: SortDocOrder and index-produced node lists must
// agree on ordering and dedup for nodes from shared COW clones.
func TestIndexedEvalMatchesWalk(t *testing.T) {
	queries := []string{
		`//item`,
		`//item/@n`,
		`/r//item`,
		`/r/item`,
		`/r/item[@k = 'k0']`,
		`//item[@k = 'k1']`,
		`//item[@k = 'k0']/@n`,
		`/r//item[@k = 'k1']`,
		`//sub//item`,
		`//item[2]`,
		`//missing`,
		`/r/empty/item`,
		`(//item, /r//item)`,
		`//item | /r/group/item`,
		`//item[@k = 'k0'] | //other | //item`,
		`for $i in //item return $i/@n`,
		`count(//item[@k = 'k0'])`,
		`//item[sub]`,
		`//item[@k = 'k0'][1]`,
		`/r/group/item[@k = 'k0']`,
		`//item/parent::*`,
	}
	// Three context trees: frozen source, a lazy clone of it (mutable,
	// must never be served the source's index), and a fresh unfrozen parse.
	frozen, err := ParseXML(apDoc)
	if err != nil {
		t.Fatal(err)
	}
	Freeze(frozen)
	clone := frozen.Clone()
	plain, _ := ParseXML(apDoc)
	docs := map[string]*Node{"frozen": frozen, "clone": clone, "plain": plain}

	for _, src := range queries {
		var want string
		first := true
		for _, lvl := range []OptLevel{O0, O1, O2} {
			for _, indexed := range []bool{true, false} {
				q, err := Compile(src, WithOptLevel(lvl), WithAccessPaths(indexed))
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				for dname, doc := range docs {
					got, err := q.EvalString(context.Background(), doc)
					if err != nil {
						t.Fatalf("%s (O%d indexed=%v %s): %v", src, lvl, indexed, dname, err)
					}
					if first {
						want, first = got, false
					} else if got != want {
						t.Errorf("%s (O%d indexed=%v %s):\n got %q\nwant %q",
							src, lvl, indexed, dname, got, want)
					}
				}
			}
		}
	}
}

// TestIndexHitStats proves the indexed configuration actually uses the
// index on a frozen tree (rather than silently walking everywhere) and
// that per-eval stats report the traffic.
func TestIndexHitStats(t *testing.T) {
	doc, err := ParseXML(apDoc)
	if err != nil {
		t.Fatal(err)
	}
	Freeze(doc)
	q, err := Compile(`count(//item[@k = 'k0'])`)
	if err != nil {
		t.Fatal(err)
	}
	var st EvalStats
	out, err := q.EvalString(context.Background(), doc, WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if out != "2" {
		t.Fatalf("result %q, want 2", out)
	}
	if st.IndexHits == 0 {
		t.Fatalf("no index hits recorded on a frozen tree: %+v", st)
	}
	if !strings.Contains(st.String(), "index=") {
		t.Fatalf("stats line missing index traffic: %s", st.String())
	}

	// The same query over an unfrozen tree must fall back, not fail.
	plain, _ := ParseXML(apDoc)
	var st2 EvalStats
	out2, err := q.EvalString(context.Background(), plain, WithStats(&st2))
	if err != nil || out2 != "2" {
		t.Fatalf("unfrozen eval: %q %v", out2, err)
	}
	if st2.IndexHits != 0 {
		t.Fatalf("index hits on an unfrozen tree: %+v", st2)
	}
	if st2.IndexFallbacks == 0 {
		t.Fatalf("no fallbacks recorded on an unfrozen tree: %+v", st2)
	}
}

// TestIndexedDuplicateAttrPredicate pins the duplicate-attribute seam: the
// folded [@attr = 'v'] probe must stay existential over every same-named
// attribute, exactly like the general comparison it replaced.
func TestIndexedDuplicateAttrPredicate(t *testing.T) {
	d := xmltree.NewDocument()
	r := xmltree.NewElement("r")
	e := xmltree.NewElement("item")
	e.AttachAttrDup(xmltree.NewAttr("k", "a"))
	e.AttachAttrDup(xmltree.NewAttr("k", "b"))
	r.AppendChild(e)
	d.AppendChild(r)

	for _, freeze := range []bool{false, true} {
		doc := d.CloneEager()
		if freeze {
			Freeze(doc)
		}
		for _, indexed := range []bool{true, false} {
			q, err := Compile(`count(//item[@k = 'b'])`, WithAccessPaths(indexed))
			if err != nil {
				t.Fatal(err)
			}
			out, err := q.EvalString(context.Background(), doc)
			if err != nil {
				t.Fatal(err)
			}
			if out != "1" {
				t.Fatalf("frozen=%v indexed=%v: existential dup-attr match lost: %q",
					freeze, indexed, out)
			}
		}
	}
}

// TestIndexSharedAcrossClones checks the memoization story end to end: many
// clones of one frozen tree evaluate concurrently and the index is built
// once, on the source, while clones keep correct (walked) results.
func TestIndexSharedAcrossClones(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, `<item n="%d" k="k%d"/>`, i, i%5)
	}
	b.WriteString("</r>")
	doc, err := ParseXML(b.String())
	if err != nil {
		t.Fatal(err)
	}
	Freeze(doc)
	q, err := Compile(`count(//item[@k = 'k2'])`)
	if err != nil {
		t.Fatal(err)
	}
	// Force the one-time build.
	if out, _ := q.EvalString(context.Background(), doc); out != "100" {
		t.Fatalf("baseline: %v", out)
	}
	var st EvalStats
	for i := 0; i < 4; i++ {
		out, err := q.EvalString(context.Background(), doc, WithStats(&st))
		if err != nil || out != "100" {
			t.Fatalf("repeat eval: %q %v", out, err)
		}
		if st.IndexBuilds != 0 {
			t.Fatalf("repeat eval rebuilt the index: %+v", st)
		}
		if st.IndexHits == 0 {
			t.Fatalf("repeat eval missed the index: %+v", st)
		}
	}
}
