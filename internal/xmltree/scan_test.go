package xmltree

import (
	"strings"
	"testing"
	"unsafe"

	"lopsided/internal/obs"
)

func TestScannerBytesRead(t *testing.T) {
	in := `<a><b>x</b></a>`
	s := NewScanner(strings.NewReader(in), ParseOptions{})
	for {
		tok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
	}
	if got := s.BytesRead(); got != int64(len(in)) {
		t.Fatalf("BytesRead = %d, want %d", got, len(in))
	}
}

const projDoc = `<r>
  <item n="1" k="ka"><title>first</title><body>b1</body></item>
  <skipme><deep><deeper>nothing here</deeper></deep></skipme>
  <item n="2" k="kb"><title>second</title><body>b2</body></item>
  <other><item n="3" k="kc"><title>nested</title></item></other>
</r>`

func mustProject(t *testing.T, doc string, proj *Projection) (*Node, ProjStats) {
	t.Helper()
	n, st, err := ParseProjectedStats(strings.NewReader(doc), proj, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return n, st
}

func TestProjectedShellPath(t *testing.T) {
	// count(/r/item): shells only, no attrs, no text, no nested items.
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "r"}, {Name: "item"}}}}}
	n, st := mustProject(t, projDoc, proj)
	if got := n.String(); got != `<r><item/><item/></r>` {
		t.Fatalf("shell projection = %s", got)
	}
	if st.ElementsPruned == 0 || st.ElementsRetained != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProjectedSubtreeDescendant(t *testing.T) {
	// //item with subtree: all three items in full, ancestors as shells.
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}, Subtree: true}}}
	n, _ := mustProject(t, projDoc, proj)
	out := n.String()
	for _, want := range []string{`<title>first</title>`, `<title>second</title>`, `<title>nested</title>`, `n="3"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("projection %s missing %q", out, want)
		}
	}
	if strings.Contains(out, "skipme") || strings.Contains(out, "deeper") {
		t.Fatalf("projection retained a dead branch: %s", out)
	}
	// Ancestor retention: the nested item's <other> parent must be a shell.
	if !strings.Contains(out, "<other>") {
		t.Fatalf("projection dropped a required ancestor: %s", out)
	}
}

func TestProjectedAttributeOnly(t *testing.T) {
	// //item/@n: shells carrying only the n attribute.
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}, Attrs: []string{"n"}}}}
	n, _ := mustProject(t, projDoc, proj)
	out := n.String()
	if !strings.Contains(out, `n="1"`) || !strings.Contains(out, `n="3"`) {
		t.Fatalf("attribute-only projection lost @n: %s", out)
	}
	if strings.Contains(out, `k="`) || strings.Contains(out, "title") {
		t.Fatalf("attribute-only projection kept too much: %s", out)
	}
	// A shell with shells below it, all dropped, between two kept items:
	// the second item and its attribute take the slots the shells gave
	// back, right after the first item's attribute.
	n, _ = mustProject(t, `<r><item n="1" k="a"/><box><inner><leaf/></inner></box><item n="2" k="b"/></r>`, proj)
	if got, want := n.String(), `<r><item n="1"/><item n="2"/></r>`; got != want {
		t.Fatalf("projection over a dropped shell = %s, want %s", got, want)
	}
	items := n.DocumentElement().Children()
	if gap := uintptr(unsafe.Pointer(items[1])) - uintptr(unsafe.Pointer(items[0].Attrs()[0])); gap != unsafe.Sizeof(Node{}) {
		t.Errorf("the item after a dropped shell sits %d bytes past the one before, want the shell's slot", gap)
	}
}

func TestProjectedDescUnderDesc(t *testing.T) {
	// //other//title: `//` under `//`, including repeated names on the spine.
	doc := `<r><other><x><other><title>inner</title></other></x><title>outer-other</title></other><title>top</title></r>`
	proj := &Projection{Paths: []ProjPath{{
		Steps:   []ProjStep{{Name: "other", Desc: true}, {Name: "title", Desc: true}},
		Subtree: true,
	}}}
	n, _ := mustProject(t, doc, proj)
	out := n.String()
	if !strings.Contains(out, "inner") || !strings.Contains(out, "outer-other") {
		t.Fatalf("desc-under-desc lost a match: %s", out)
	}
	if strings.Contains(out, ">top<") {
		t.Fatalf("desc-under-desc kept a non-match: %s", out)
	}
}

func TestProjectedWildcardAndPrefix(t *testing.T) {
	doc := `<r><ns:a><keep>x</keep></ns:a><b><keep>y</keep></b></r>`
	proj := &Projection{Paths: []ProjPath{{
		Steps:   []ProjStep{{Name: "r"}, {Name: "ns:*"}, {Name: "keep"}},
		Subtree: true,
	}}}
	n, _ := mustProject(t, doc, proj)
	out := n.String()
	if !strings.Contains(out, ">x<") || strings.Contains(out, ">y<") {
		t.Fatalf("prefix wildcard projection wrong: %s", out)
	}
}

func TestProjectedMalformedSkippedRegion(t *testing.T) {
	// Errors inside skipped subtrees must still surface, with the text and
	// position a full build reports (these five pinned from the commit that
	// still had a separate skip-mode scanner).
	pinned := []struct{ doc, want string }{
		{`<r><skip><bad b="1" b="2"/></skip><item/></r>`, `xml: 1:26: duplicate attribute "b" on <bad>`},
		{`<r><skip>&nope;</skip><item/></r>`, `xml: 1:10: unknown entity &nope;`},
		{`<r><skip><x></y></skip><item/></r>`, `xml: 1:16: end tag </y> does not match <x>`},
		{`<r><skip><!-- nope </skip><item/></r>`, `xml: 1:14: unterminated comment`},
		{`<r><skip attr="<"/><item/></r>`, `xml: 1:16: '<' in attribute value`},
	}
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}}}}
	for _, c := range pinned {
		_, _, err := ParseProjectedStats(strings.NewReader(c.doc), proj, ParseOptions{})
		if err == nil || err.Error() != c.want {
			t.Errorf("case %q: projected err %v, want %s", c.doc, err, c.want)
		}
	}
	// Validate-only is the same code as materialize: whatever the grammar
	// table holds, nested under a pruned element it gets the verdict the
	// full build gives, through every kind of input.
	var nested []string
	for _, c := range grammarCases {
		nested = append(nested, c.in)
	}
	for _, c := range fragmentCases {
		nested = append(nested, c.in)
	}
	for _, in := range nested {
		doc := `<r><skip>` + in + `</skip><item/></r>`
		for _, opts := range grammarOpts {
			want := `ok 3 <r><item/></r>`
			if _, fullErr := ParseWith(doc, opts); fullErr != nil {
				want = fullErr.Error()
			}
			for _, m := range inputModes {
				got, _, err := buildTree(m.scan(doc, opts), proj, nil)
				if r := parseResult(got, err); r != want {
					t.Errorf("%q %+v %s:\n got %s\nwant %s", doc, opts, m.name, r, want)
				}
			}
		}
	}
}

func TestProjectedEverything(t *testing.T) {
	// A root-subtree projection must reproduce the full parse exactly.
	proj := &Projection{Paths: []ProjPath{{Subtree: true}}}
	n, _ := mustProject(t, projDoc, proj)
	want := MustParse(projDoc)
	if n.String() != want.String() {
		t.Fatalf("everything projection differs:\n%s\nvs\n%s", n.String(), want.String())
	}
}

func TestProjectedFrozen(t *testing.T) {
	proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}}}}
	n, _ := mustProject(t, projDoc, proj)
	if !n.IndexCacheable() {
		t.Fatal("projected tree is not frozen")
	}
}

func TestProjectedStatsFullBuild(t *testing.T) {
	// The full build is the projected builder's degenerate case: it reports
	// what it read and counts as a projected parse, while the string entry
	// points, which run the same builder, count as neither kind.
	for _, proj := range []*Projection{nil, {Paths: []ProjPath{{Subtree: true}}}} {
		before := obs.MetricsSnapshot().Stream
		_, st, err := ParseProjectedStats(strings.NewReader(projDoc), proj, ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.BytesRead != int64(len(projDoc)) || st.ElementsRetained != 13 || st.ElementsPruned != 0 {
			t.Errorf("full-build stats = %+v", st)
		}
		after := obs.MetricsSnapshot().Stream
		if after.ProjectedParses != before.ProjectedParses+1 || after.ReaderParses != before.ReaderParses ||
			after.BytesScanned != before.BytesScanned+int64(len(projDoc)) {
			t.Errorf("counters moved %+v -> %+v", before, after)
		}
	}
	before := obs.MetricsSnapshot().Stream
	MustParse(projDoc)
	if _, err := ParseFragment(projDoc); err != nil {
		t.Fatal(err)
	}
	if after := obs.MetricsSnapshot().Stream; after != before {
		t.Errorf("string parses moved the stream counters %+v -> %+v", before, after)
	}
	if _, err := ParseReader(strings.NewReader(projDoc)); err != nil {
		t.Fatal(err)
	}
	if after := obs.MetricsSnapshot().Stream; after.ReaderParses != before.ReaderParses+1 || after.ProjectedParses != before.ProjectedParses {
		t.Errorf("reader parse moved the stream counters %+v -> %+v", before, after)
	}
}

func TestScanMatchesConditionsAndSubtrees(t *testing.T) {
	path := ProjPath{Steps: []ProjStep{{Name: "item", Desc: true, Conds: []AttrCond{{Name: "k", Value: "kc"}}}}, Subtree: true}
	var got []*Node
	n, err := ScanMatches(strings.NewReader(projDoc), ParseOptions{}, path, func(tok Token, subtree *Node) {
		if tok.Name != "item" || subtree == nil || subtree.Parent != nil {
			t.Errorf("match %q: subtree %v must be the element's own detached node", tok.Name, subtree)
		}
		got = append(got, subtree)
	})
	if err != nil || n != int64(len(projDoc)) {
		t.Fatalf("bytes=%d err=%v", n, err)
	}
	if len(got) != 1 || got[0].String() != `<item n="3" k="kc"><title>nested</title></item>` {
		t.Fatalf("matches = %v", got)
	}
	// Without Subtree nothing is built, conditions still apply, and both
	// conditions of a step must hold.
	path = ProjPath{Steps: []ProjStep{{Name: "r"}, {Name: "item", Conds: []AttrCond{{Name: "n", Value: "2"}, {Name: "k", Value: "kb"}}}}}
	count := 0
	if _, err := ScanMatches(strings.NewReader(projDoc), ParseOptions{}, path, func(tok Token, subtree *Node) {
		count++
		if subtree != nil || len(tok.Attrs) != 2 {
			t.Errorf("shell match: subtree=%v attrs=%v", subtree, tok.Attrs)
		}
	}); err != nil || count != 1 {
		t.Fatalf("count=%d err=%v", count, err)
	}
	path.Steps[1].Conds[1].Value = "ka"
	count = 0
	if _, err := ScanMatches(strings.NewReader(projDoc), ParseOptions{}, path, func(Token, *Node) { count++ }); err != nil || count != 0 {
		t.Fatalf("conditions must all hold: count=%d err=%v", count, err)
	}
}

// TestScanMatchesBuildsNothingOutsideMatches is the O(depth) argument as an
// allocation count: with a path that matches every element but asks for no
// subtrees, a scan allocates nothing per element — no element node, no
// attribute node, no document, no text (the scanner passes over it), no
// copy of the attribute values it hands to onMatch (views of its window),
// no state list (the frames share one stack) — so nothing but the scratch
// stacks can be reachable afterwards. The full build it is measured beside
// allocates, per element, only what the tree keeps of the input and its
// share of the slab and arena chunks; a projected build copies nothing it
// drops, comments and PIs in shells included. Measured as the growth
// between two document widths, which cancels the fixed costs.
func TestScanMatchesBuildsNothingOutsideMatches(t *testing.T) {
	items := func(width int) string {
		return "<r><!-- c -->" + strings.Repeat(`<item k="val">text<sub/></item>`, width) + "</r><?pi x?>"
	}
	shells := func(width int) string {
		return "<r>" + strings.Repeat(`<x><!-- a comment --><?pi data?></x>`, width) + "</r>"
	}
	path := ProjPath{Steps: []ProjStep{{Name: "*", Desc: true}}}
	const narrow, wide = 50, 450
	// Per repeat of items, ParseReader copies one attribute value and one
	// text run and takes four nodes (<item>, its @k, the text, <sub/>).
	// Measured, row by row: 0, 813 and 6.
	repeats := float64(wide - narrow)
	rows := []struct {
		name string
		doc  func(width int) string
		run  func(in string)
		// The growth must lie in [lo, hi].
		lo, hi float64
	}{
		{"ScanMatches, count mode", items, func(in string) {
			matches := 0
			if _, err := ScanMatches(strings.NewReader(in), ParseOptions{}, path, func(_ Token, subtree *Node) {
				matches++
				if subtree != nil {
					t.Error("count-mode match carries a subtree")
				}
			}); err != nil || matches == 0 {
				t.Errorf("matches=%d err=%v", matches, err)
			}
		}, 0, 0},
		{"ParseReader", items, func(in string) {
			if _, err := ParseReader(strings.NewReader(in)); err != nil {
				t.Error(err)
			}
		}, 0, repeats * (1 + 1 + 4.0/64)},
		// A shell's comment and PI are scanned, not copied: what grows is
		// the kept shells' share of the slab and of <r>'s child list.
		{"ParseProjected //x", shells, func(in string) {
			proj := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "x", Desc: true}}}}}
			if _, err := ParseProjected(strings.NewReader(in), proj); err != nil {
				t.Error(err)
			}
		}, 0, repeats / 32},
	}
	for _, r := range rows {
		allocs := func(in string) float64 { return testing.AllocsPerRun(20, func() { r.run(in) }) }
		grew := allocs(r.doc(wide)) - allocs(r.doc(narrow))
		if grew < r.lo || grew > r.hi {
			t.Errorf("%s: %v more allocations for %v more repeats, want %v to %v", r.name, grew, repeats, r.lo, r.hi)
		}
	}
}

// TestMatcherStatesStayBounded holds the live-state set to one entry per
// (path, step): repeated descendant steps over same-named nesting reach a
// state along every combination of ancestors, and a matcher that kept each
// arrival would do work and hold memory exponential in the number of steps
// (a 1.4 KB document was enough to run for seconds). With each frame's set
// deduped, a frame's states are at most four entries of the one state stack
// all frames share, so the stacks grow by doubling to depth × 4 states and
// nothing is allocated per element: 32 allocations for the count-mode scan
// over 1000 nested elements, and 53 for the projected build, which adds a
// slab chunk per 256 nodes and an arena chunk per 1 024 list entries.
func TestMatcherStatesStayBounded(t *testing.T) {
	const depth = 1000
	doc := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	a := ProjStep{Name: "a", Desc: true}
	path := ProjPath{Steps: []ProjStep{a, a, a, a}}
	matches := 0
	scan := testing.AllocsPerRun(3, func() {
		matches = 0
		if _, err := ScanMatches(strings.NewReader(doc), ParseOptions{}, path, func(Token, *Node) { matches++ }); err != nil {
			t.Error(err)
		}
	})
	if matches != depth-3 {
		t.Fatalf("matches = %d, want one per element at depth >= 4: %d", matches, depth-3)
	}
	if scan > 32 {
		t.Fatalf("count-mode scan: %v allocations over %d nested elements", scan, depth)
	}
	var st ProjStats
	build := testing.AllocsPerRun(3, func() {
		var err error
		if _, st, err = ParseProjectedStats(strings.NewReader(doc), &Projection{Paths: []ProjPath{path}}, ParseOptions{}); err != nil {
			t.Error(err)
		}
	})
	if st.ElementsRetained != depth || build > 53 {
		t.Fatalf("projected build: %v allocations, stats %+v", build, st)
	}
}
