package xmltree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// walkAll returns every node of the tree (attributes, text and comments
// included) in Walk order, the definition of document order.
func walkAll(root *Node) []*Node {
	var all []*Node
	Walk(root, func(n *Node) bool {
		all = append(all, n)
		return true
	})
	return all
}

// wideXML is n/2 <item n="i"/> siblings: n nodes under one wide parent.
func wideXML(n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n/2; i++ {
		fmt.Fprintf(&b, `<item n="%d"/>`, i)
	}
	b.WriteString("</r>")
	return b.String()
}

// narrowTree builds about n nodes, hand-made, no parent wider than 12.
func narrowTree(n int) *Node {
	root := NewElement("r")
	level := []*Node{root}
	for made := 1; made < n; {
		var next []*Node
		for _, p := range level {
			for i := 0; i < 12 && made < n; i++ {
				c := NewElement("e")
				c.SetAttr("i", fmt.Sprint(i))
				p.AppendChild(c)
				next = append(next, c)
				made += 2
			}
		}
		level = next
	}
	return root
}

func mustProjected(t *testing.T, src string) *Node {
	t.Helper()
	d, err := ParseProjected(strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSortDocOrderMixedTrees: a sequence over two trees sorts into one group
// per tree, each in document order, the groups in the order CompareDocOrder
// gives the two trees — whichever of the two is numbered — and the sort
// allocates the same (nothing) for 200 nodes a tree as for 2 000. Roots used
// to be ordered by formatting both addresses inside every comparison.
func TestSortDocOrderMixedTrees(t *testing.T) {
	type pair struct {
		name string
		make func(n int) (*Node, *Node)
	}
	pairs := []pair{
		{"numbered+numbered", func(n int) (*Node, *Node) {
			return mustProjected(t, wideXML(n)), mustProjected(t, wideXML(n))
		}},
		{"numbered+mutable", func(n int) (*Node, *Node) {
			return mustProjected(t, wideXML(n)), narrowTree(n)
		}},
		{"mutable+mutable", func(n int) (*Node, *Node) {
			return narrowTree(n), narrowTree(n)
		}},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			allocs := map[int]float64{}
			for _, n := range []int{200, 2000} {
				ra, rb := p.make(n)
				a, b := walkAll(ra), walkAll(rb)
				if CompareDocOrder(ra, rb) > 0 {
					a, b = b, a
				}
				want := append(append([]*Node{}, a...), b...)
				mixed := append([]*Node{}, want...)
				rand.New(rand.NewSource(int64(n))).Shuffle(len(mixed), func(i, j int) {
					mixed[i], mixed[j] = mixed[j], mixed[i]
				})
				got := SortDocOrder(append(append([]*Node{}, mixed...), mixed[:n/2]...))
				if len(got) != len(want) {
					t.Fatalf("n=%d: %d nodes after sort, want %d", n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d: position %d is not the walk's node", n, i)
					}
				}
				for i := 0; i < len(mixed); i += 7 {
					x, y := mixed[i], mixed[len(mixed)-1-i]
					if xy, yx := CompareDocOrder(x, y), CompareDocOrder(y, x); xy != -yx {
						t.Fatalf("n=%d: CompareDocOrder not antisymmetric: %d and %d", n, xy, yx)
					}
				}
				for _, x := range a[:20] {
					for _, y := range b[:20] {
						if CompareDocOrder(x, y) != -1 || CompareDocOrder(y, x) != 1 {
							t.Fatalf("n=%d: `<<` disagrees with the sort about which tree comes first", n)
						}
					}
				}
				buf := make([]*Node, len(mixed))
				allocs[n] = testing.AllocsPerRun(5, func() {
					copy(buf, mixed)
					SortDocOrder(buf)
				})
			}
			if allocs[200] != 0 || allocs[2000] != 0 {
				t.Errorf("sort allocates %v times at 200 nodes a tree, %v at 2000; want 0 and 0",
					allocs[200], allocs[2000])
			}
		})
	}
}

// TestOnlySealedRootsAreNumbered is the ordinal rule's "who": a tree is
// numbered when ParseProjected returns it or NumberFrozen has walked it, and
// nothing else — not a plain parse, not Freeze, not a clone or anything
// materialized out of one, not a constructed tree, not an update's result.
func TestOnlySealedRootsAreNumbered(t *testing.T) {
	born := mustProjected(t, wideXML(40))
	if !born.Numbered() {
		t.Fatal("ParseProjected returned a root that is not numbered")
	}
	all := walkAll(born)
	for i, n := range all {
		if i > 0 && n.Ordinal() <= all[i-1].Ordinal() {
			t.Fatalf("ordinals not increasing in walk order at node %d", i)
		}
	}
	parsed := MustParse(wideXML(40))
	clone := born.Clone()
	walkAll(clone) // materialize every stub
	built := NewDocument()
	built.AppendChild(narrowTree(30))
	updated, _, err := ApplyUpdates(born, []Update{{Op: UpdRename, Target: born.DocumentElement(), Name: "q"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, root := range map[string]*Node{
		"Parse": parsed, "Parse+Freeze": Freeze(MustParse(wideXML(40))), "Clone": clone,
		"constructed": built, "constructed+Freeze": Freeze(narrowTree(30)), "ApplyUpdates": updated,
	} {
		if root.Numbered() {
			t.Errorf("%s: root is numbered", name)
		}
	}
	// A mutator works on an unnumbered tree and leaves it so.
	clone.DocumentElement().AppendChild(NewElement("late"))
	clone.DocumentElement().SetAttr("k", "v")
	if clone.Numbered() {
		t.Error("mutated clone is numbered")
	}
	// NumberFrozen numbers what was not, and leaves born ordinals alone.
	frozen := Freeze(parsed)
	elems := 0
	NumberFrozen(frozen, func(*Node) { elems++ })
	if !frozen.Numbered() || elems != 21 {
		t.Errorf("NumberFrozen: numbered=%v, visited %d elements; want true and 21", frozen.Numbered(), elems)
	}
	// (The candidate shells //item drops leave a gap, so renumbering would show.)
	pruned, err := ParseProjected(strings.NewReader(`<r><skip><x/><x/></skip><item n="1"/></r>`),
		&Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "item", Desc: true}}, Attrs: []string{"n"}}}})
	if err != nil {
		t.Fatal(err)
	}
	before := pruned.SubtreeEnd()
	NumberFrozen(pruned, func(*Node) {})
	if after := pruned.SubtreeEnd(); after != before || before < 5 {
		t.Errorf("NumberFrozen renumbered a tree born numbered: last ordinal %d, was %d (want ≥ 5)", after, before)
	}
}

// TestCompareDocOrderStaleParent: SetChildren leaves the replaced children
// pointing at their old parent. Ordering them is meaningless but must stay
// an order, or a sort over them could run off its slice.
func TestCompareDocOrderStaleParent(t *testing.T) {
	p := NewElement("p")
	x, y := NewElement("x"), NewElement("y")
	p.AppendChild(x)
	p.AppendChild(y)
	p.SetChildren(nil)
	if xy, yx := CompareDocOrder(x, y), CompareDocOrder(y, x); xy == 0 || xy != -yx {
		t.Fatalf("stale siblings: %d and %d, want opposite and non-zero", xy, yx)
	}
}

// TestWideMutableTreeOrderedCheckAllocatesNothing: in a tree that is not
// numbered, input already in document order is recognised by scanning on
// from the last position under each wide parent — no table, no allocation
// — at two nested wide levels as well as one, and input that is not in
// order still sorts to walk order (through the table).
func TestWideMutableTreeOrderedCheckAllocatesNothing(t *testing.T) {
	r := NewElement("r")
	var items, attrs []*Node
	for s := 0; s < 40; s++ {
		sec := NewElement("section")
		r.AppendChild(sec)
		for i := 0; i < 40; i++ {
			it := NewElement("item")
			attrs = append(attrs, it.SetAttr("n", fmt.Sprint(i)))
			sec.AppendChild(it)
			items = append(items, it)
		}
	}
	for name, seq := range map[string][]*Node{"items": items, "attributes": attrs, "sections": r.Children()} {
		if got := SortDocOrder(seq); len(got) != len(seq) || &got[0] != &seq[0] {
			t.Fatalf("%s: ordered input did not come back untouched", name)
		}
		if n := testing.AllocsPerRun(10, func() { SortDocOrder(seq) }); n != 0 {
			t.Errorf("%s: checking ordered input allocates %v times, want 0", name, n)
		}
		mixed := append(append([]*Node{}, seq...), seq[len(seq)/2:]...)
		rand.New(rand.NewSource(3)).Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		got := SortDocOrder(mixed)
		if len(got) != len(seq) {
			t.Fatalf("%s: %d nodes after sort, want %d", name, len(got), len(seq))
		}
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("%s: position %d is not the walk's node", name, i)
			}
		}
	}
}
