package index

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lopsided/internal/obs"
	"lopsided/internal/xmltree"
)

const doc = `<r>
  <item n="1" k="k0"><sub/>alpha</item>
  <item n="2" k="k1">beta<item n="2.1" k="k0"/></item>
  <group><item n="3" k="k2">gamma</item><other k="k0"/></group>
  <empty/>
</r>`

func frozenDoc(t *testing.T, src string) *xmltree.Node {
	t.Helper()
	d, err := xmltree.ParseTrimmed(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return xmltree.Freeze(d)
}

func attr(n *xmltree.Node, name string) string {
	v, _ := n.Attr(name)
	return v
}

func names(nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}

func TestForRequiresFrozenRoot(t *testing.T) {
	d, err := xmltree.ParseTrimmed(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := For(d); ok {
		t.Fatal("For served an index for an unfrozen root")
	}
	xmltree.Freeze(d)
	ix, ok := For(d)
	if !ok || ix == nil {
		t.Fatal("For refused a frozen root")
	}
	// Memoized: same index for every caller.
	ix2, ok := For(d)
	if !ok || ix2 != ix {
		t.Fatal("For did not memoize the index on the root")
	}
	if got, ok := Peek(d); !ok || got != ix {
		t.Fatal("Peek did not find the memoized index")
	}
}

func TestDescendantsDocOrder(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)

	got, served := ix.Descendants(d, "item")
	if !served {
		t.Fatal("probe not served")
	}
	// Must equal the tree-walk result exactly (order and identity).
	var want []*xmltree.Node
	for _, n := range xmltree.DescendantAxis(d) {
		if n.Kind == xmltree.ElementNode && n.Name == "item" {
			want = append(want, n)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: index and walk disagree on identity/order", i)
		}
	}

	// Scoped to an interior context: only that subtree's descendants.
	r := d.Children()[0]
	group := r.Children()[2]
	sub, served := ix.Descendants(group, "item")
	if !served || len(sub) != 1 || attr(sub[0], "n") != "3" {
		t.Fatalf("scoped probe wrong: served=%v %v", served, names(sub))
	}
	// Context excluded from its own descendant set.
	item2 := r.Children()[1]
	nested, _ := ix.Descendants(item2, "item")
	if len(nested) != 1 || attr(nested[0], "n") != "2.1" {
		t.Fatalf("descendant probe should exclude context: %v", names(nested))
	}
}

// keyed runs KeyEq for an attribute subject and keeps the survivors, as the
// evaluator's step does.
func keyed(ix *DocIndex, ctx *xmltree.Node, name, attr, val string, child bool) (nodes []*xmltree.Node, served bool) {
	k, served := ix.KeyEq(ctx, name, Subject{Name: attr}, val, child)
	for _, n := range k.Nodes {
		if k.Keep(n) {
			nodes = append(nodes, n)
		}
	}
	return nodes, served
}

func TestDescendantsAttrEq(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	got, served := keyed(ix, d, "item", "k", "k0", false)
	if !served || len(got) != 2 {
		t.Fatalf("want 2 k0 items, got %d (served=%v)", len(got), served)
	}
	if attr(got[0], "n") != "1" || attr(got[1], "n") != "2.1" {
		t.Fatalf("wrong nodes: %s %s", attr(got[0], "n"), attr(got[1], "n"))
	}
	// <other k="k0"/> must not leak in despite matching the value index.
	for _, n := range got {
		if n.Name != "item" {
			t.Fatalf("non-item element served: %s", n.Name)
		}
	}
	if got, _ := keyed(ix, d, "item", "k", "nope", false); len(got) != 0 {
		t.Fatalf("missing value matched %d nodes", len(got))
	}
}

func TestDescendantsAttrEqDuplicateAttrs(t *testing.T) {
	// Duplicate attributes (Galax-bug trees): the predicate is existential
	// over every same-named attribute, and the owner lists once.
	d := xmltree.NewDocument()
	r := xmltree.NewElement("r")
	e := xmltree.NewElement("item")
	e.SetContent([]*xmltree.Node{xmltree.NewAttr("k", "a"), xmltree.NewAttr("k", "b"), xmltree.NewAttr("k", "a")}, nil)
	r.AppendChild(e)
	d.AppendChild(r)
	xmltree.Freeze(d)

	ix, _ := For(d)
	for _, v := range []string{"a", "b"} {
		got, served := keyed(ix, d, "item", "k", v, false)
		if !served || len(got) != 1 || got[0] != e {
			t.Fatalf("value %q: want the one owner once, got %d", v, len(got))
		}
	}
	if !(Subject{Name: "k"}).Holds(e, "b") || (Subject{Name: "k"}).Holds(e, "c") {
		t.Fatal("Holds must be existential over duplicate attributes")
	}
}

func TestChildrenAttrEq(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	r := d.Children()[0]
	got, served := keyed(ix, r, "item", "k", "k0", true)
	if !served || len(got) != 1 || attr(got[0], "n") != "1" {
		// item n=2.1 has k0 but is a grandchild; other k0 owners aren't items.
		t.Fatalf("want only the direct k0 item child, got %v", names(got))
	}
	// A name list shorter than the value list is the one scanned; its
	// entries are then checked for the attribute and the parent.
	wide := frozenDoc(t, `<r><a k="v"/><a k="w"/><g><a k="v"/></g>`+strings.Repeat(`<b k="v"/>`, 8)+`</r>`)
	wix, _ := For(wide)
	wr := wide.Children()[0]
	if k, _ := wix.KeyEq(wr, "a", Subject{Name: "k"}, "v", true); len(k.Nodes) != 3 {
		t.Fatalf("scanned %d entries, want the 3 a elements", len(k.Nodes))
	}
	if got, _ := keyed(wix, wr, "a", "k", "v", true); len(got) != 1 || got[0] != wr.Children()[0] {
		t.Fatalf("child probe by name: got %v, want the first a", names(got))
	}
	if got, _ := keyed(wix, wr, "a", "k", "v", false); len(got) != 2 {
		t.Fatalf("descendant probe by name: got %v, want two a", names(got))
	}
}

// TestAttrEqAllocs pins that a keyed probe hands out index storage: a served
// probe, hit or miss, child or descendant, allocates nothing once the
// sections are built.
func TestAttrEqAllocs(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	r := d.Children()[0]
	keyed(ix, d, "item", "k", "k0", false) // builds both sections
	for _, child := range []bool{false, true} {
		for _, val := range []string{"k0", "nope"} {
			got := testing.AllocsPerRun(100, func() {
				if _, served := ix.KeyEq(r, "item", Subject{Name: "k"}, val, child); !served {
					t.Fatal("probe not served")
				}
			})
			if got != 0 {
				t.Errorf("child=%v %q: %v allocs per probe, want 0", child, val, got)
			}
		}
	}
}

func TestForeignContextFallsBack(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	if _, served := ix.Descendants(xmltree.NewElement("x"), "item"); served {
		t.Fatal("index served a context node from another tree")
	}
	// A clone of the tree is a different identity universe: its nodes must
	// not be served from the source's index.
	clone := d.Clone()
	cloneR := clone.Children()[0]
	if _, served := ix.Descendants(cloneR, "item"); served {
		t.Fatal("index served a materialized clone node")
	}
}

func TestCloneNeverSeesSourceIndex(t *testing.T) {
	d := frozenDoc(t, doc)
	if _, ok := For(d); !ok {
		t.Fatal("source index")
	}
	clone := d.Clone()
	// The clone shares the source's content but is mutable and has fresh
	// identities: it must not be index-cacheable, and For must refuse it.
	if clone.IndexCacheable() {
		t.Fatal("lazy clone claims to be index-cacheable")
	}
	if _, ok := For(clone); ok {
		t.Fatal("For served an index for a mutable lazy clone")
	}
}

// TestIndexOrderMatchesSortDocOrder is the ISSUE's doc-order seam check at
// the tree layer: index-produced node lists and xmltree.SortDocOrder must
// agree on ordering AND dedup — for nodes of the frozen source and for
// nodes of a lazily-materialized COW clone that still shares the source's
// storage. (The engine-level O0–O2 cross-check over cloned trees lives in
// xq/accesspath_test.go; this pins the identity-level invariant the
// interpreter's document-order normalization relies on.)
func TestIndexOrderMatchesSortDocOrder(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	fromIndex, served := ix.Descendants(d, "item")
	if !served || len(fromIndex) != 4 {
		t.Fatalf("probe: served=%v n=%d", served, len(fromIndex))
	}
	// Scramble the index's list (reverse + duplicate every node): SortDocOrder
	// must restore exactly the index's order with duplicates removed.
	scrambled := make([]*xmltree.Node, 0, 2*len(fromIndex))
	for i := len(fromIndex) - 1; i >= 0; i-- {
		scrambled = append(scrambled, fromIndex[i], fromIndex[i])
	}
	sorted := xmltree.SortDocOrder(scrambled)
	if len(sorted) != len(fromIndex) {
		t.Fatalf("SortDocOrder kept %d nodes, want %d (dedup)", len(sorted), len(fromIndex))
	}
	for i := range sorted {
		if sorted[i] != fromIndex[i] {
			t.Fatalf("node %d: SortDocOrder and index disagree on order/identity", i)
		}
	}

	// Same seam on a shared COW clone: the clone is walked (never index
	// served), but SortDocOrder over its scrambled nodes must reproduce the
	// walk order — clones materialize lazily out of the source's storage and
	// a path-based comparison must not be confused by that sharing.
	clone := d.Clone()
	var walked []*xmltree.Node
	for _, n := range xmltree.DescendantAxis(clone) {
		if n.Kind == xmltree.ElementNode && n.Name == "item" {
			walked = append(walked, n)
		}
	}
	if len(walked) != len(fromIndex) {
		t.Fatalf("clone walk found %d items, want %d", len(walked), len(fromIndex))
	}
	cscr := make([]*xmltree.Node, 0, 2*len(walked))
	for i := len(walked) - 1; i >= 0; i-- {
		cscr = append(cscr, walked[i], walked[i])
	}
	csorted := xmltree.SortDocOrder(cscr)
	if len(csorted) != len(walked) {
		t.Fatalf("clone SortDocOrder kept %d nodes, want %d", len(csorted), len(walked))
	}
	for i := range csorted {
		if csorted[i] != walked[i] {
			t.Fatalf("clone node %d: SortDocOrder and walk disagree", i)
		}
		if csorted[i] == fromIndex[i] {
			t.Fatalf("clone node %d shares identity with the source — clone isolation broken", i)
		}
	}
}

func TestInfoLazySections(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	if info := ix.Info(); info.Built || info.Attrs != nil || info.Content != nil {
		t.Fatalf("sections built eagerly: %+v", info)
	}
	ix.Descendants(d, "item")
	if info := ix.Info(); !info.Built || info.Attrs != nil || info.Content != nil {
		t.Fatalf("struct probe built wrong sections: %+v", info)
	}
	if info := ix.Info(); info.Elements != 9 || info.Names != 6 {
		// r, 3×item + nested item, sub, group, other, empty = 9 elements;
		// distinct names: r, item, sub, group, other, empty = 6.
		t.Fatalf("info counts wrong: %+v", info)
	}
	// An attribute probe builds the value section of its own name and no
	// other: @n is not indexed, and neither is any child content. @k has
	// three distinct values (k0, k1, k2).
	ix.KeyEq(d, "item", Subject{Name: "k"}, "k0", false)
	if info := ix.Info(); len(info.Attrs) != 1 || info.Attrs["k"] != 3 || info.Content != nil {
		t.Fatalf("@k probe built wrong sections: %+v", info)
	}
	ix.KeyEq(d, "r", Subject{Name: "item", Content: true}, "alpha", false)
	ix.KeyEq(d, "item", Subject{Name: "nope", Content: true}, "", false)
	// <item> children have four distinct string values (alpha, beta, the
	// empty nested item's and gamma); a name no element has is built once
	// and keys nothing.
	if info := ix.Info(); len(info.Content) != 2 || info.Content["item"] != 4 || info.Content["nope"] != 0 || len(info.Attrs) != 1 {
		t.Fatalf("content sections: %+v", info)
	}
}

// contentKeyed is keyed for a content subject.
func contentKeyed(ix *DocIndex, ctx *xmltree.Node, name, child, val string, childStep bool) (nodes []*xmltree.Node) {
	k, _ := ix.KeyEq(ctx, name, Subject{Name: child, Content: true}, val, childStep)
	for _, n := range k.Nodes {
		if k.Keep(n) {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// TestContentSection pins the content section's lists: a parent is listed
// under each of its children's string values, once per value, in document
// order even when a nested parent's child precedes its own parent's; mixed
// content is keyed by its concatenated value; a grandchild is not keyed.
func TestContentSection(t *testing.T) {
	d := frozenDoc(t, `<r>`+
		`<item n="1"><title>a</title><title>a</title><title>b</title></item>`+
		`<item n="2"><item n="3"><title>a</title></item><title>a</title></item>`+
		`<item n="4"><title>a<i>x</i>c</title><sub><title>a</title></sub></item>`+
		`</r>`)
	ix, _ := For(d)
	ns := func(nodes []*xmltree.Node) string {
		var out []string
		for _, n := range nodes {
			if v := attr(n, "n"); v != "" {
				out = append(out, v)
			} else {
				out = append(out, n.Name)
			}
		}
		return strings.Join(out, ",")
	}
	contentKeyed(ix, d, "item", "title", "a", false) // builds the section
	if got := ns(ix.state.Load().values[Subject{Name: "title", Content: true}]["a"].nodes); got != "1,2,3,sub" {
		t.Fatalf(`owners of "a" = %s, want 1,2,3,sub`, got)
	}
	for _, tc := range []struct {
		ctx             *xmltree.Node
		name, val, want string
		childStep       bool
	}{
		{d, "item", "a", "1,2,3", false},
		{d, "item", "b", "1", false},
		{d, "item", "axc", "4", false},
		{d, "sub", "a", "sub", false},
		{d, "sub", "axc", "", false},
		{d.Children()[0], "item", "a", "1,2", true},
		{d.Children()[0].Children()[1], "item", "a", "3", false},
		{d.Children()[0].Children()[1], "item", "a", "3", true},
	} {
		if got := ns(contentKeyed(ix, tc.ctx, tc.name, "title", tc.val, tc.childStep)); got != tc.want {
			t.Errorf("%s[title = %q] from <%s n=%q> (child %v) = %s, want %s",
				tc.name, tc.val, tc.ctx.Name, attr(tc.ctx, "n"), tc.childStep, got, tc.want)
		}
	}
}

// TestContentSectionsRace makes every first probe at once: 16 goroutines,
// released together, probe by element name (the structural pass), by two
// attribute names and by two child names, each checking its answers
// against Subject.Holds over a walk while the other sections build. Run
// with -race.
func TestContentSectionsRace(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, `<item a="a%d" b="b%d"><title>t%d</title><sub>s%d</sub></item>`, i%3, i%4, i%7, i%5)
	}
	b.WriteString("</r>")
	d := frozenDoc(t, b.String())
	ix, _ := For(d)
	probes := []struct {
		subj Subject
		vals int
	}{
		{Subject{Name: "title", Content: true}, 7},
		{Subject{Name: "sub", Content: true}, 5},
		{Subject{Name: "a"}, 3},
		{Subject{Name: "b"}, 4},
		{}, // a name probe: Descendants
	}
	const workers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			p := probes[g%len(probes)]
			if p.vals == 0 {
				if nodes, served := ix.Descendants(d, "title"); !served || len(nodes) != 200 {
					errs <- fmt.Sprintf("name probe: %d titles, served %v", len(nodes), served)
				}
				return
			}
			for iter := 0; iter < 20; iter++ {
				val := fmt.Sprintf("%c%d", p.subj.Name[0], iter%p.vals)
				k, served := ix.KeyEq(d, "item", p.subj, val, false)
				if !served {
					errs <- "keyed probe not served"
					return
				}
				got := 0
				for _, n := range k.Nodes {
					if k.Keep(n) {
						if !p.subj.Holds(n, val) {
							errs <- fmt.Sprintf("%s probe kept a non-matching node", p.subj.Name)
							return
						}
						got++
					}
				}
				if want := (200 + p.vals - 1 - iter%p.vals) / p.vals; got != want {
					errs <- fmt.Sprintf("%s = %q: %d items, want %d", p.subj.Name, val, got, want)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	info := ix.Info()
	if len(info.Content) != 2 || info.Content["title"] != 7 || info.Content["sub"] != 5 ||
		len(info.Attrs) != 2 || info.Attrs["a"] != 3 || info.Attrs["b"] != 4 {
		t.Fatalf("value sections: %+v", info)
	}
}

// TestInvalidationUnderMutationRace is the ISSUE satellite: 16 goroutines
// mutate lazily-materialized clones of an indexed frozen source while other
// goroutines probe the source index. Clones must never be served the
// source's (now semantically divergent) index, and the source's own answers
// must stay correct throughout. Run with -race.
func TestInvalidationUnderMutationRace(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, `<item n="%d" k="k%d"><sub/></item>`, i, i%7)
	}
	b.WriteString("</r>")
	d := frozenDoc(t, b.String())
	ix, ok := For(d)
	if !ok {
		t.Fatal("no source index")
	}
	baseline, _ := ix.Descendants(d, "item")
	if len(baseline) != 200 {
		t.Fatalf("baseline: %d", len(baseline))
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				clone := d.Clone()
				// Mutate the lazily-materialized clone: remove children,
				// rename elements, add items the source never had.
				r := clone.Children()[0]
				kids := r.Children()
				if g%2 == 0 && len(kids) > 0 {
					r.SetChildren(kids[:len(kids)/2])
				} else {
					extra := xmltree.NewElement("item")
					extra.SetAttr("n", fmt.Sprintf("x%d-%d", g, iter))
					r.AppendChild(extra)
				}
				// A mutated clone must never observe the stale source index.
				if clone.IndexCacheable() {
					errs <- "mutated clone became index-cacheable"
					return
				}
				if _, served := For(clone); served {
					errs <- "For served an index for a mutated clone"
					return
				}
				if _, served := ix.Descendants(r, "item"); served {
					errs <- "source index served a clone context node"
					return
				}
				// The frozen source must be unaffected by clone mutation.
				got, served := ix.Descendants(d, "item")
				if !served || len(got) != 200 {
					errs <- fmt.Sprintf("source probe drifted: served=%v n=%d", served, len(got))
					return
				}
				gotEq, _ := keyed(ix, d, "item", "k", "k3", false)
				for _, n := range gotEq {
					if !(Subject{Name: "k"}).Holds(n, "k3") {
						errs <- "value probe returned a non-matching node"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestStatsCounters(t *testing.T) {
	before := obs.MetricsSnapshot().Index
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	ix.Descendants(d, "item") // hit (+struct build)
	ix.Descendants(xmltree.NewElement("x"), "item")
	after := obs.MetricsSnapshot().Index
	if after.Builds <= before.Builds || after.Hits <= before.Hits || after.Fallbacks <= before.Fallbacks {
		t.Fatalf("counters did not advance: before=%+v after=%+v", before, after)
	}
}
