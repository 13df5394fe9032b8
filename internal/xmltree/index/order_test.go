package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"lopsided/internal/xmltree"
)

func walkAll(root *xmltree.Node) []*xmltree.Node {
	var all []*xmltree.Node
	xmltree.Walk(root, func(n *xmltree.Node) bool {
		all = append(all, n)
		return true
	})
	return all
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// orderSrc has every node kind, nesting, a parent wider than the sort's
// scan threshold (so the position table is exercised) and repeated names.
func orderSrc() string {
	var b strings.Builder
	b.WriteString(`<?pi top?><r a="1" b="2"><!-- c --><g k="x">`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `<item n="%d" k="k%d">t%d<sub/></item>`, i, i%3, i)
	}
	b.WriteString(`</g>text<g><item n="deep"><item n="deeper" k="k0"/></item><?pi inner?></g><skip><x/><x/></skip></r>`)
	return b.String()
}

// checkOrder requires SortDocOrder ≡ Walk order over a shuffled, duplicated
// copy of all nodes and sign(CompareDocOrder(a,b)) ≡ Walk-index order for
// every pair.
func checkOrder(t *testing.T, when string, all []*xmltree.Node) {
	t.Helper()
	scr := append(append([]*xmltree.Node{}, all...), all...)
	rand.New(rand.NewSource(1)).Shuffle(len(scr), func(i, j int) { scr[i], scr[j] = scr[j], scr[i] })
	sorted := xmltree.SortDocOrder(scr)
	if len(sorted) != len(all) {
		t.Fatalf("%s: SortDocOrder kept %d nodes, want %d", when, len(sorted), len(all))
	}
	for i := range all {
		if sorted[i] != all[i] {
			t.Fatalf("%s: SortDocOrder position %d is not the walk's node", when, i)
		}
	}
	if again := xmltree.SortDocOrder(sorted); len(again) != len(all) || &again[0] != &sorted[0] {
		t.Fatalf("%s: sorted input did not come back untouched", when)
	}
	for i, a := range all {
		for j, b := range all {
			if got, want := sign(xmltree.CompareDocOrder(a, b)), sign(i-j); got != want {
				t.Fatalf("%s: CompareDocOrder(walk[%d], walk[%d]) = %d, want %d", when, i, j, got, want)
			}
		}
	}
}

// TestDocOrderAcrossTreeSources holds the two implementations of document
// order — ordinals under a numbered root, the common-ancestor climb
// elsewhere — to Walk order for every way a tree comes to exist, and
// requires that numbering a tree (the index build) changes no answer.
func TestDocOrderAcrossTreeSources(t *testing.T) {
	parse := func() *xmltree.Node {
		d, err := xmltree.Parse(orderSrc())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	projected := func(proj *xmltree.Projection) *xmltree.Node {
		d, err := xmltree.ParseProjected(strings.NewReader(orderSrc()), proj)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sources := []struct {
		name     string
		root     *xmltree.Node
		numbered bool // before any index build
	}{
		{"Parse", parse(), false},
		{"Parse+Freeze", xmltree.Freeze(parse()), false},
		{"ParseProjected(nil)", projected(nil), true},
		{"ParseProjected(pruning)", projected(&xmltree.Projection{Paths: []xmltree.ProjPath{
			{Steps: []xmltree.ProjStep{{Name: "item", Desc: true}}, Attrs: []string{"n"}},
			{Steps: []xmltree.ProjStep{{Name: "r"}, {Name: "g"}, {Name: "item"}, {Name: "sub"}}, Subtree: true},
		}}), true},
		{"hand-built+Freeze", func() *xmltree.Node {
			d := xmltree.NewDocument()
			r := xmltree.NewElement("r")
			r.SetAttr("a", "1")
			d.AppendChild(xmltree.NewComment("c"))
			d.AppendChild(r)
			for i := 0; i < 20; i++ {
				e := xmltree.NewElement("item")
				e.SetAttr("n", fmt.Sprint(i))
				e.AppendChild(xmltree.NewText("t"))
				r.AppendChild(e)
				// A frozen tree may hold lazy clones; the index walk
				// materializes and numbers them.
				r.AppendChild(e.Clone())
			}
			return xmltree.Freeze(d)
		}(), false},
		{"Clone+mutate+Freeze", func() *xmltree.Node {
			c := projected(nil).Clone()
			r := c.DocumentElement()
			r.SetChildren(slices.Insert(slices.Clone(r.Children()), 1, xmltree.NewElement("item")))
			g := r.Children()[2]
			kids := g.Children()
			g.SetChildren(append(kids[:3:3], kids[4:]...))
			r.Children()[2].Children()[5].SetAttr("late", "1")
			return xmltree.Freeze(c)
		}(), false},
		{"ApplyUpdates", func() *xmltree.Node {
			src := projected(nil)
			g := src.DocumentElement().Children()[1]
			out, _, err := xmltree.ApplyUpdates(src, []xmltree.Update{
				{Op: xmltree.UpdDelete, Target: g.Children()[30]},
				{Op: xmltree.UpdInsertBefore, Target: g.Children()[2], Content: []*xmltree.Node{xmltree.NewElement("item")}},
				{Op: xmltree.UpdInsertInto, Target: g.Children()[20], Attrs: []*xmltree.Node{xmltree.NewAttr("z", "1")}},
			}, false)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}(), false},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			all := walkAll(src.root)
			if src.root.Numbered() != src.numbered {
				t.Fatalf("root numbered = %v, want %v", src.root.Numbered(), src.numbered)
			}
			checkOrder(t, "before the index build", all)
			ix, ok := For(src.root)
			if !ok {
				if src.root.IndexCacheable() {
					t.Fatal("For refused a frozen root")
				}
				return // the unfrozen parse: never indexed, never numbered
			}
			items, served := ix.Descendants(src.root, "item")
			if !served || !src.root.Numbered() {
				t.Fatalf("served=%v numbered=%v after the structural build", served, src.root.Numbered())
			}
			checkOrder(t, "after the index build", all)
			// The index's own lists and scoping read the same ordinals.
			var want []*xmltree.Node
			for _, n := range all {
				if n.Kind == xmltree.ElementNode && n.Name == "item" {
					want = append(want, n)
				}
			}
			if len(items) != len(want) {
				t.Fatalf("index lists %d items, walk %d", len(items), len(want))
			}
			for i := range want {
				if items[i] != want[i] {
					t.Fatalf("index item %d is not the walk's", i)
				}
			}
			for _, ctx := range all {
				if ctx.Kind != xmltree.ElementNode {
					continue
				}
				var under []*xmltree.Node
				for _, n := range xmltree.DescendantAxis(ctx) {
					if n.Kind == xmltree.ElementNode && n.Name == "item" {
						under = append(under, n)
					}
				}
				got, _ := ix.Descendants(ctx, "item")
				if len(got) != len(under) {
					t.Fatalf("scoped probe under <%s>: %d items, walk %d", ctx.Name, len(got), len(under))
				}
				for i := range under {
					if got[i] != under[i] {
						t.Fatalf("scoped probe under <%s>: item %d is not the walk's", ctx.Name, i)
					}
				}
			}
		})
	}
}

// TestInteriorRootIsNotIndexed: ordinals are numbered from the top of a
// tree, so a frozen interior node (any Clone source is one) must not anchor
// an index that would renumber part of somebody else's tree.
func TestInteriorRootIsNotIndexed(t *testing.T) {
	d := frozenDoc(t, doc)
	r := d.DocumentElement()
	r.Clone() // freezes r in place
	if !r.IndexCacheable() {
		t.Fatal("clone source is not frozen")
	}
	if _, ok := For(r); ok {
		t.Fatal("For served an index anchored below the root")
	}
}

// TestNumberingRace: 16 goroutines first-touch a freshly frozen 8 000-node
// tree that is not numbered yet, interleaving sorts, `<<` comparisons and
// index probes: the probes run the numbering walk while the others are
// ordering by the fallback, and keep ordering until they have seen the flag
// flip. Every answer must be the walk's whichever side of the flag it was
// computed on. Run with -race: an ordinal read without the flag, or a flag
// published before the ordinals, is a reported race. Several fresh trees,
// because each has one such moment.
func TestNumberingRace(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, `<item n="%d">t<sub/></item>`, i)
	}
	b.WriteString("</r>")
	for round := 0; round < 6; round++ {
		d, err := xmltree.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		all := walkAll(d) // 2 + 2000×4 nodes
		xmltree.Freeze(d)

		const workers = 16
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan string, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				<-start
				// The orderers go on for a while after the flag flips, so
				// both sides of it are exercised; the probers stop at once.
				for after := 0; after < 3; {
					if d.Numbered() {
						after++
					}
					switch g % 4 {
					case 0:
						ix, ok := For(d)
						if !ok {
							errs <- "For refused the frozen root"
							return
						}
						ctx := d.DocumentElement().Children()[rng.Intn(2000)]
						if got, served := ix.Descendants(ctx, "sub"); !served || len(got) != 1 || got[0].Parent != ctx {
							errs <- "scoped probe wrong"
							return
						}
						if got, _ := ix.Descendants(d, "item"); len(got) != 2000 {
							errs <- "root probe wrong"
							return
						}
					case 1:
						at := make([]int, 40)
						pick := make([]*xmltree.Node, len(at))
						for i := range at {
							at[i] = rng.Intn(len(all))
							pick[i] = all[at[i]]
						}
						sort.Ints(at)
						sorted := xmltree.SortDocOrder(pick)
						k := 0
						for i, p := range at {
							if i > 0 && p == at[i-1] {
								continue
							}
							if k >= len(sorted) || sorted[k] != all[p] {
								errs <- "SortDocOrder disagrees with walk order"
								return
							}
							k++
						}
					default:
						for k := 0; k < 40; k++ {
							i, j := rng.Intn(len(all)), rng.Intn(len(all))
							if sign(xmltree.CompareDocOrder(all[i], all[j])) != sign(i-j) {
								errs <- "CompareDocOrder disagrees with walk order"
								return
							}
						}
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
	}
}
