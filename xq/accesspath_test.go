package xq

import (
	"context"
	"fmt"
	"slices"
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
// eligible steps, and name the fallback reason for ineligible ones. A plain
// child::name step is a tree walk: the child list is already the answer.
func TestExplainShowsAccessPaths(t *testing.T) {
	cases := []struct {
		src   string
		want  string
		avoid string
	}{
		{`//item`, "access path IndexScan descendant::item", "TreeWalk"},
		{`/r//item`, "access path IndexScan descendant::item", "TreeWalk descendant"},
		{`/r/item[@k = 'k0']`, "access path IndexScan child::item (child name step, folded [@k = 'k0'])", "TreeWalk child::item"},
		{`//item[@k = 'k1']`, "access path IndexScan descendant::item (fused // into descendant::item, folded [@k = 'k1'])", "TreeWalk"},
		{`/r/item`, "access path TreeWalk child::item", "IndexScan"},
		// Positional predicate blocks fusion: per-parent vs global counting.
		{`//item[2]`, "access path TreeWalk child::item", "IndexScan"},
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

	// A key that is not a literal prints through the AST printer, from
	// either side of the comparison; a key the planner refuses leaves a tree
	// walk that says why.
	for _, tc := range []struct{ src, want string }{
		{`for $r in /m/relation return /m/node[@id = string($r/@source)]`,
			"access path IndexScan child::node (child name step, folded [@id = (call string (path (filter $r) (attribute::source)))], key evaluated once per step)"},
		{`for $v in ("a", "b") return /r/item[$v = @k]`,
			"access path IndexScan child::item (child name step, folded [@k = $v], key evaluated once per step)"},
		{`/r/item[@k = trace("k", "a")]`,
			"access path TreeWalk child::item (child::item, [@k = …] not folded: key calls trace, which emits)"},
		{`declare function local:k() { "a" }; /r/item[@k = local:k()]`,
			"access path TreeWalk child::item (child::item, [@k = …] not folded: key calls user function local:k)"},
		{`/r/item[@n = position()]`,
			"access path TreeWalk child::item (child::item, [@n = …] not folded: key calls position(), which reads the focus)"},
		{`/r/descendant::item[@k = .]`,
			"access path IndexScan descendant::item (descendant::item name step, [@k = …] not folded: key reads the context item)"},
	} {
		q, err := Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if plan := q.Explain(); !strings.Contains(plan, tc.want) {
			t.Errorf("EXPLAIN of %s missing %q:\n%s", tc.src, tc.want, plan)
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

	// Directed misses, under an element, a text and an attribute context: the
	// walk answers them empty at every level, indexed or not.
	misses := []string{`/r/nothere`, `//item/nothere`, `/r/item/text()/nothere`, `//item/@k/nothere`}
	for _, src := range append(queries, misses...) {
		var want string
		first := !slices.Contains(misses, src)
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

// catalogDoc builds and freezes a catalog of sections × 100 items, each
// item with a title child; k cycles through 16 values so an equality probe
// selects one item in sixteen.
func catalogDoc(t *testing.T, sections int) *Node {
	t.Helper()
	var b strings.Builder
	b.WriteString(`<catalog>`)
	for s := 0; s < sections; s++ {
		fmt.Fprintf(&b, `<section n="%d">`, s)
		for id := s * 100; id < (s+1)*100; id++ {
			fmt.Fprintf(&b, `<item n="%d" k="k%d"><title>Item %d</title></item>`, id, id%16, id)
		}
		b.WriteString(`</section>`)
	}
	b.WriteString(`</catalog>`)
	doc, err := ParseXML(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return Freeze(doc)
}

// TestIndexedEvalAllocs pins what an index-served evaluation costs: a name
// scan and a name miss allocate the same at 1 000 and at 4 000 items,
// and a folded attribute probe grows only by the append doublings of its
// result, while the forced walk of the same query grows with the corpus.
// The counts are exact: a probe that copies its node list, or rebuilds an
// index section per evaluation, is one allocation or thousands too many.
func TestIndexedEvalAllocs(t *testing.T) {
	small, large := catalogDoc(t, 10), catalogDoc(t, 40)
	allocs := func(q *Query, doc *Node, want string, runs int) float64 {
		t.Helper()
		// The first evaluation builds the lazy index sections.
		if got, err := q.EvalString(nil, doc); err != nil || got != want {
			t.Fatalf("eval = %q, %v; want %q", got, err, want)
		}
		return testing.AllocsPerRun(runs, func() {
			if _, err := q.EvalString(nil, doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		src                      string
		wantSmall, wantLarge     string
		allocsSmall, allocsLarge float64
	}{
		// Three fewer each than before PR 22 (14/14, 19/22): the step result,
		// already in ordinal order, comes back from SortDoc untouched, where it
		// used to be unwrapped, keyed and sort.SliceStable'd through two pools.
		{`count(//item)`, "1000", "4000", 11, 11},
		{`count(//item[@k = 'k7'])`, "63", "250", 16, 19},
		{`count(//nothing)`, "0", "0", 7, 7},
	} {
		indexed, err := Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun floors its average, so 100 runs absorb the few
		// allocations the runtime's first GC cycle makes on its own.
		if s, l := allocs(indexed, small, tc.wantSmall, 100), allocs(indexed, large, tc.wantLarge, 100); s != tc.allocsSmall || l != tc.allocsLarge {
			t.Errorf("%s indexed: %v allocs at 1000 items, %v at 4000; want %v and %v",
				tc.src, s, l, tc.allocsSmall, tc.allocsLarge)
		}
		walk, err := Compile(tc.src, WithAccessPaths(false))
		if err != nil {
			t.Fatal(err)
		}
		if s, l := allocs(walk, small, tc.wantSmall, 10), allocs(walk, large, tc.wantLarge, 10); l < 3*s {
			t.Errorf("%s walked: %v allocs at 1000 items, %v at 4000; want at least 3x growth",
				tc.src, s, l)
		}
	}
}

// TestChildStepAllocsFrozenEqualsMutable pins that a plain child::name step
// costs a frozen tree nothing extra: `/r/item/title` reads child lists, so it
// allocates exactly the same over a frozen tree and an unfrozen one. A probe
// per context node — what the path synopsis was — would show here as hundreds
// of allocations on the frozen side only.
func TestChildStepAllocsFrozenEqualsMutable(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "<item><title>Item %d</title></item>", i)
	}
	b.WriteString("</r>")
	q, err := Compile(`count(/r/item/title)`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(freeze bool) float64 {
		doc, err := ParseXML(b.String())
		if err != nil {
			t.Fatal(err)
		}
		if freeze {
			Freeze(doc)
		}
		if got, err := q.EvalString(nil, doc); err != nil || got != "500" {
			t.Fatalf("frozen=%v: eval = %q, %v; want 500", freeze, got, err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := q.EvalString(nil, doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	if frozen, mutable := allocs(true), allocs(false); frozen != mutable {
		t.Errorf("/r/item/title over 500 items: %v allocs frozen, %v unfrozen; want equal", frozen, mutable)
	}
}
