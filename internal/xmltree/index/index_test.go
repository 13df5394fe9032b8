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

func TestDescendantsAttrEq(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	got, served := ix.DescendantsAttrEq(d, "item", "k", "k0")
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
	if got, _ := ix.DescendantsAttrEq(d, "item", "k", "nope"); len(got) != 0 {
		t.Fatalf("missing value matched %d nodes", len(got))
	}
}

func TestDescendantsAttrEqDuplicateAttrs(t *testing.T) {
	// Duplicate attributes (Galax-bug trees): the predicate is existential
	// over every same-named attribute, and the owner lists once.
	d := xmltree.NewDocument()
	r := xmltree.NewElement("r")
	e := xmltree.NewElement("item")
	e.AttachAttrDup(xmltree.NewAttr("k", "a"))
	e.AttachAttrDup(xmltree.NewAttr("k", "b"))
	e.AttachAttrDup(xmltree.NewAttr("k", "a"))
	r.AppendChild(e)
	d.AppendChild(r)
	xmltree.Freeze(d)

	ix, _ := For(d)
	for _, v := range []string{"a", "b"} {
		got, served := ix.DescendantsAttrEq(d, "item", "k", v)
		if !served || len(got) != 1 || got[0] != e {
			t.Fatalf("value %q: want the one owner once, got %d", v, len(got))
		}
	}
	if !AttrAnyEq(e, "k", "b") || AttrAnyEq(e, "k", "c") {
		t.Fatal("AttrAnyEq must be existential over duplicate attributes")
	}
}

func TestChildrenAttrEq(t *testing.T) {
	d := frozenDoc(t, doc)
	ix, _ := For(d)
	r := d.Children()[0]
	got, served := ix.ChildrenAttrEq(r, "item", "k", "k0")
	if !served || len(got) != 1 || attr(got[0], "n") != "1" {
		// item n=2.1 has k0 but is a grandchild; other k0 owners aren't items.
		t.Fatalf("want only the direct k0 item child, got %v", names(got))
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
// interpreter's SortDoc normalization relies on.)
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
	if info := ix.Info(); info.Built || info.AttrsBuilt {
		t.Fatalf("sections built eagerly: %+v", info)
	}
	ix.Descendants(d, "item")
	if info := ix.Info(); !info.Built || info.AttrsBuilt {
		t.Fatalf("struct probe built wrong sections: %+v", info)
	}
	if info := ix.Info(); info.Elements != 9 || info.Names != 6 {
		// r, 3×item + nested item, sub, group, other, empty = 9 elements;
		// distinct names: r, item, sub, group, other, empty = 6.
		t.Fatalf("info counts wrong: %+v", info)
	}
	ix.DescendantsAttrEq(d, "item", "k", "k0")
	if info := ix.Info(); !info.AttrsBuilt || info.AttrKeys == 0 {
		t.Fatalf("value section not built: %+v", info)
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
				gotEq, _ := ix.DescendantsAttrEq(d, "item", "k", "k3")
				for _, n := range gotEq {
					if !AttrAnyEq(n, "k", "k3") {
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
