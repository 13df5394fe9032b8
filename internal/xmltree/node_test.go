package xmltree

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"
)

// TestNodeSize makes the next field added to every node of every tree a
// decision: 80 bytes is a 16-byte header (kind, flags, ordinal, attribute
// count), Name, Data, Parent, one content list (pointer, uint32 length and
// capacity) and one copy-on-write word (lazy source or index box).
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(*new(Node)); got != 80 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 80", got)
	}
}

func TestNewNodesKinds(t *testing.T) {
	tests := []struct {
		n    *Node
		kind NodeKind
	}{
		{NewDocument(), DocumentNode},
		{NewElement("a"), ElementNode},
		{NewText("t"), TextNode},
		{NewComment("c"), CommentNode},
		{NewAttr("k", "v"), AttributeNode},
		{NewPI("tg", "d"), PINode},
	}
	for _, tt := range tests {
		if tt.n.Kind != tt.kind {
			t.Errorf("kind = %v, want %v", tt.n.Kind, tt.kind)
		}
	}
}

func TestKindString(t *testing.T) {
	if got := ElementNode.String(); got != "element()" {
		t.Errorf("ElementNode.String() = %q", got)
	}
	if got := NodeKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestAppendChildSetsParent(t *testing.T) {
	el := NewElement("root")
	c := NewElement("kid")
	el.AppendChild(c)
	if c.Parent != el {
		t.Fatal("parent not set")
	}
	if len(el.Children()) != 1 || el.Children()[0] != c {
		t.Fatal("child not appended")
	}
}

func TestAppendChildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic appending child to text node")
		}
	}()
	NewText("t").AppendChild(NewElement("x"))
}

func TestAppendAttrAsChildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic appending attribute as child")
		}
	}()
	NewElement("e").AppendChild(NewAttr("a", "1"))
}

func TestInsertRemoveReplaceChild(t *testing.T) {
	el := NewElement("r")
	a, b, c := NewText("a"), NewText("b"), NewText("c")
	el.AppendChild(a)
	el.AppendChild(c)
	el.InsertChildAt(1, b)
	if el.StringValue() != "abc" {
		t.Fatalf("after insert: %q", el.StringValue())
	}
	el.SetChildren([]*Node{b, c})
	if el.StringValue() != "bc" {
		t.Fatalf("after remove: %q", el.StringValue())
	}
	d := NewText("d")
	old := el.ReplaceChildAt(1, d)
	if old != c || el.StringValue() != "bd" {
		t.Fatalf("after replace: %q", el.StringValue())
	}
	if el.ChildIndex(d) != 1 || el.ChildIndex(a) != -1 {
		t.Fatal("ChildIndex wrong")
	}
}

func TestAttrOperations(t *testing.T) {
	el := NewElement("e")
	el.SetAttr("x", "1")
	el.SetAttr("y", "2")
	el.SetAttr("x", "3") // replace
	if len(el.Attrs()) != 2 {
		t.Fatalf("attrs = %d, want 2", len(el.Attrs()))
	}
	if v, ok := el.Attr("x"); !ok || v != "3" {
		t.Fatalf("x = %q, %v", v, ok)
	}
	if el.AttrOr("z", "def") != "def" {
		t.Fatal("AttrOr default")
	}
}

func TestAttachAttrReplaces(t *testing.T) {
	el := NewElement("e")
	el.SetAttr("a", "1")
	free := NewAttr("a", "2")
	old := el.AttachAttr(free)
	if old == nil || old.Data != "1" {
		t.Fatal("AttachAttr should return replaced attribute")
	}
	if v, _ := el.Attr("a"); v != "2" {
		t.Fatal("AttachAttr did not replace value")
	}
	if el.AttachAttr(NewAttr("b", "3")) != nil {
		t.Fatal("AttachAttr of new name should return nil")
	}
}

// TestSetContentAdoptsList: SetContent adopts a list as given when the
// other side is empty, duplicates and all, or when the children directly
// follow the attributes in one array; otherwise it builds one exact list.
// It re-parents every node.
func TestSetContentAdoptsList(t *testing.T) {
	el := NewElement("e")
	el.SetAttr("old", "0")
	el.AppendChild(NewElement("gone"))
	list := []*Node{NewAttr("k", "a"), NewAttr("k", "b")}
	el.SetContent(list, nil)
	got := el.Attrs()
	if len(got) != 2 || &got[0] != &list[0] || len(el.Children()) != 0 {
		t.Fatalf("SetContent must adopt the attributes as given, got %d attrs", len(got))
	}
	for _, a := range got {
		if a.Parent != el {
			t.Fatal("SetContent must re-parent every attribute")
		}
	}
	if el.String() != `<e k="a" k="b"/>` {
		t.Fatalf("got %s", el.String())
	}
	kids := []*Node{NewText("t"), NewElement("c")}
	el.SetContent(nil, kids)
	if got := el.Children(); len(got) != 2 || &got[0] != &kids[0] || len(el.Attrs()) != 0 {
		t.Fatalf("SetContent must adopt the children as given, got %d", len(got))
	}
	el.SetContent(list, kids)
	if el.String() != `<e k="a" k="b">t<c/></e>` || kids[1].Parent != el {
		t.Fatalf("got %s", el.String())
	}
	if l := el.list(); len(l) != 4 || cap(l) != 4 || &l[0] == &list[0] || &l[2] == &kids[0] {
		t.Fatal("SetContent with both sides must build one exact list of its own")
	}
	one := []*Node{NewAttr("p", "1"), NewText("x")}
	el.SetContent(one[:1], one[1:])
	if l := el.list(); len(l) != 2 || &l[0] != &one[0] || el.String() != `<e p="1">x</e>` {
		t.Fatal("SetContent must adopt attributes directly followed by the children as the list")
	}
	for _, bad := range []func(){
		func() { NewDocument().SetContent(list, nil) },
		func() { NewText("t").SetContent(nil, nil) },
		func() { el.SetContent([]*Node{NewText("t")}, nil) },
		func() { el.SetContent(nil, []*Node{NewAttr("a", "1")}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic")
				}
			}()
			bad()
		}()
	}
}

func TestRootAndDocument(t *testing.T) {
	doc := NewDocument()
	el := NewElement("root")
	kid := NewElement("kid")
	doc.AppendChild(el)
	el.AppendChild(kid)
	if kid.Root() != doc || kid.Document() != doc {
		t.Fatal("Root/Document")
	}
	if doc.DocumentElement() != el {
		t.Fatal("DocumentElement")
	}
	orphan := NewElement("o")
	if orphan.Document() != nil {
		t.Fatal("orphan should have nil Document")
	}
}

func TestStringValue(t *testing.T) {
	doc := MustParse(`<a>one<b>two<!--x--></b><?pi d?>three</a>`)
	if got := doc.StringValue(); got != "onetwothree" {
		t.Errorf("doc string value = %q", got)
	}
	el := doc.DocumentElement()
	if got := el.StringValue(); got != "onetwothree" {
		t.Errorf("element string value = %q", got)
	}
	if NewAttr("a", "v").StringValue() != "v" {
		t.Error("attr string value")
	}
	if NewComment("c").StringValue() != "c" {
		t.Error("comment string value")
	}
}

func TestLocalNamePrefix(t *testing.T) {
	n := NewElement("ns:local")
	if n.LocalName() != "local" || n.Prefix() != "ns" {
		t.Fatalf("got %q %q", n.LocalName(), n.Prefix())
	}
	m := NewElement("plain")
	if m.LocalName() != "plain" || m.Prefix() != "" {
		t.Fatal("plain name")
	}
}

func TestCloneDeepAndIndependent(t *testing.T) {
	doc := MustParse(`<a x="1"><b>t</b></a>`)
	el := doc.DocumentElement()
	c := el.Clone()
	if c.Parent != nil {
		t.Fatal("clone should be parentless")
	}
	if !Equal(el, c) {
		t.Fatal("clone not structurally equal")
	}
	c.SetAttr("x", "2")
	c.Children()[0].Children()[0].Data = "u"
	if v, _ := el.Attr("x"); v != "1" {
		t.Fatal("clone mutation leaked to original attr")
	}
	if el.StringValue() != "t" {
		t.Fatal("clone mutation leaked to original text")
	}
	if c.Children()[0].Parent != c {
		t.Fatal("clone children parents not rewired")
	}
}

// TestCloneDoesNotWalkSource: a lazy clone is one node and a pointer, however
// large the source. Counting the deferred nodes at clone time made it a walk
// of the whole source subtree.
func TestCloneDoesNotWalkSource(t *testing.T) {
	tree := func(n int) *Node {
		r := NewElement("r")
		for i := 0; i < n; i++ {
			r.AppendChild(NewElement("item"))
		}
		return Freeze(r)
	}
	small, large := tree(4000), tree(64000)
	clones := func(src *Node) time.Duration {
		start := time.Now()
		for i := 0; i < 2000; i++ {
			if c := src.Clone(); c.Name != "r" {
				t.Fatalf("clone name %q", c.Name)
			}
		}
		return time.Since(start)
	}
	// Best of three on each side, so a scheduling hiccup cannot fake a slope.
	ds, dl := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		ds, dl = min(ds, clones(small)), min(dl, clones(large))
	}
	if dl > 4*ds {
		t.Errorf("2000 clones of 64000 nodes took %v, of 4000 nodes %v: more than 4x for 16x the source", dl, ds)
	}
}

func TestEqual(t *testing.T) {
	a := MustParse(`<a x="1"><b/>t</a>`)
	b := MustParse(`<a x="1"><b/>t</a>`)
	if !Equal(a, b) {
		t.Fatal("structurally equal docs reported unequal")
	}
	c := MustParse(`<a x="2"><b/>t</a>`)
	if Equal(a, c) {
		t.Fatal("different attr values reported equal")
	}
	d := MustParse(`<a x="1"><b/>u</a>`)
	if Equal(a, d) {
		t.Fatal("different text reported equal")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Fatal("nil handling")
	}
}

func TestCompareDocOrder(t *testing.T) {
	doc := MustParse(`<a x="1"><b><c/></b><d/></a>`)
	a := doc.DocumentElement()
	b := a.Children()[0]
	c := b.Children()[0]
	d := a.Children()[1]
	x := a.Attrs()[0]
	ordered := []*Node{doc, a, x, b, c, d}
	for i := range ordered {
		for j := range ordered {
			got := CompareDocOrder(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("CompareDocOrder(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestCompareDocOrderDifferentTrees(t *testing.T) {
	a := NewElement("a")
	b := NewElement("b")
	ab := CompareDocOrder(a, b)
	ba := CompareDocOrder(b, a)
	if ab == 0 || ba == 0 || ab == ba {
		t.Fatalf("cross-tree order not antisymmetric: %d %d", ab, ba)
	}
	// Consistency on repeat.
	if CompareDocOrder(a, b) != ab {
		t.Fatal("cross-tree order not stable")
	}
}

func TestSortDocOrderDedups(t *testing.T) {
	doc := MustParse(`<a><b/><c/><d/></a>`)
	a := doc.DocumentElement()
	b, c, d := a.Children()[0], a.Children()[1], a.Children()[2]
	in := []*Node{d, b, c, b, d, a}
	out := SortDocOrder(in)
	want := []*Node{a, b, c, d}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] wrong", i)
		}
	}
	// Short slices returned as-is.
	single := []*Node{a}
	if got := SortDocOrder(single); len(got) != 1 || got[0] != a {
		t.Fatal("singleton")
	}
}

func TestWalkAndCount(t *testing.T) {
	doc := MustParse(`<a x="1" y="2"><b><c/></b>text</a>`)
	// doc, a, @x, @y, b, c, text = 7
	if got := CountNodes(doc); got != 7 {
		t.Fatalf("CountNodes = %d, want 7", got)
	}
	var names []string
	Walk(doc, func(n *Node) bool {
		if n.Kind == ElementNode || n.Kind == AttributeNode {
			names = append(names, n.Name)
		}
		return true
	})
	want := "a x y b c"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("walk order = %q, want %q", got, want)
	}
	// Early stop.
	count := 0
	Walk(doc, func(n *Node) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop count = %d", count)
	}
}

// TestParsedTreeStaysMutable: the builder carves every element's one
// content list side by side from shared chunks, and a parsed tree is not
// frozen, so each list must end where the next begins (cap == len). Then
// growing one element's list reallocates it, and no other element —
// attributes, content or serialization — sees the change. The same holds
// for the lists a lazy clone materializes and for a constructed tree. An
// attribute inserted into an element with children builds a new list, so a
// Children slice taken before keeps its contents.
func TestParsedTreeStaysMutable(t *testing.T) {
	const doc = `<r><a x="1" y="2"><b/>t<c z="3"><i/></c></a><d w="4"><e>u</e><!--c--></d><f/>v<g h="5" k="6"/></r>`
	fromReader := func(wrap func(io.Reader) io.Reader) func() ([]*Node, error) {
		return func() ([]*Node, error) {
			d, err := ParseReader(wrap(strings.NewReader(doc)))
			return []*Node{d}, err
		}
	}
	// construct rebuilds a parsed tree through the constructing API.
	var construct func(n *Node) *Node
	construct = func(n *Node) *Node {
		var c *Node
		switch n.Kind {
		case DocumentNode:
			c = NewDocument()
		case ElementNode:
			c = NewElement(n.Name)
			for _, a := range n.Attrs() {
				c.SetAttr(a.Name, a.Data)
			}
		default:
			return n.CloneEager()
		}
		for _, k := range n.Children() {
			c.AppendChild(construct(k))
		}
		return c
	}
	builds := []struct {
		name  string
		parse func() ([]*Node, error)
	}{
		{"Parse", func() ([]*Node, error) { d, err := Parse(doc); return []*Node{d}, err }},
		{"ParseReader", fromReader(func(r io.Reader) io.Reader { return r })},
		{"ParseReader one byte", fromReader(iotest.OneByteReader)},
		{"ParseFragment", func() ([]*Node, error) { return ParseFragment(doc + `w<s q="7"><j/></s>`) }},
		{"lazy clone", func() ([]*Node, error) { d, err := Parse(doc); return []*Node{d.Clone()}, err }},
		{"constructed", func() ([]*Node, error) { d, err := Parse(doc); return []*Node{construct(d)}, err }},
	}
	ops := []struct {
		name     string
		apply    func(el *Node)
		attrs    int // attributes added
		kids     int // children added
		needKids bool
		// keepsHeld: a Children slice taken before reads the same after
		// (InsertChildAt may shift the list in place, as it always has).
		keepsHeld bool
	}{
		{"all four mutators", func(el *Node) {
			el.AppendChild(NewElement("appended"))
			el.InsertChildAt(0, NewText("inserted"))
			el.SetAttr("set", "1")
			el.AttachAttr(NewAttr("attached", "2"))
		}, 2, 2, false, false},
		{"SetAttr", func(el *Node) { el.SetAttr("set", "1") }, 1, 0, true, true},
		{"AttachAttr", func(el *Node) { el.AttachAttr(NewAttr("attached", "2")) }, 1, 0, true, true},
		{"AppendChild after SetAttr", func(el *Node) {
			el.SetAttr("set", "1")
			el.AppendChild(NewElement("appended"))
		}, 1, 1, false, true},
	}
	// elements lists the elements under roots in document order.
	elements := func(roots []*Node) []*Node {
		var out []*Node
		for _, r := range roots {
			Walk(r, func(n *Node) bool {
				if n.Kind == ElementNode {
					out = append(out, n)
				}
				return true
			})
		}
		return out
	}
	type snapshot struct {
		attrs, kids []*Node
		text        string
	}
	snap := func(n *Node) snapshot {
		return snapshot{slices.Clone(n.Attrs()), slices.Clone(n.Children()), n.String()}
	}
	for _, b := range builds {
		roots, err := b.parse()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		count := len(elements(roots))
		for _, op := range ops {
			for i := 0; i < count; i++ {
				roots, _ := b.parse()
				elems := elements(roots)
				before := make([]snapshot, len(elems))
				for j, e := range elems {
					before[j] = snap(e)
				}
				el := elems[i]
				if op.needKids && len(before[i].kids) == 0 {
					continue
				}
				held := el.Children()
				op.apply(el)
				where := fmt.Sprintf("%s, %s on <%s>", b.name, op.name, el.Name)
				if got := len(el.Children()); got != len(before[i].kids)+op.kids {
					t.Errorf("%s: %d children, had %d", where, got, len(before[i].kids))
				}
				if got := len(el.Attrs()); got != len(before[i].attrs)+op.attrs {
					t.Errorf("%s: %d attributes, had %d", where, got, len(before[i].attrs))
				}
				if op.keepsHeld && !slices.Equal(held, before[i].kids) {
					t.Errorf("%s: a Children slice taken before changed", where)
				}
				for j, e := range elems {
					if j == i {
						continue
					}
					now, was := snap(e), before[j]
					if !slices.Equal(now.attrs, was.attrs) || !slices.Equal(now.kids, was.kids) {
						t.Errorf("%s (element %d) changed the lists of <%s> (element %d)", where, i, e.Name, j)
					}
					if !isAncestor(e, el) && now.text != was.text {
						t.Errorf("%s changed <%s>: %s, was %s", where, e.Name, now.text, was.text)
					}
				}
			}
		}
	}
}

func isAncestor(a, n *Node) bool {
	for p := n.Parent; p != nil; p = p.Parent {
		if p == a {
			return true
		}
	}
	return false
}

// TestIndexBoxRace: one copy-on-write word holds a lazy clone's source and,
// once the node is a solid shared root, its index box. Goroutines freezing
// and indexing a shared lazy clone while others materialize, serialize and
// clone under it must each find one or the other, never a box taken for a
// source or a source served as a box.
func TestIndexBoxRace(t *testing.T) {
	src := MustParse(`<r a="1"><x b="2"><y/>t</x><z c="3"/></r>`)
	want, nodes := src.String(), CountNodes(src)
	for round := 0; round < 50; round++ {
		c := src.Clone()
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 4 {
				case 0:
					Freeze(c)
					if v := c.SetIndexCache(g); v == nil || c.IndexCache() != v {
						errs <- fmt.Sprintf("index box %v, then %v", v, c.IndexCache())
					}
				case 1:
					if got := c.String(); got != want {
						errs <- "serialized " + got
					}
				case 2:
					seen := 0
					Walk(c, func(*Node) bool { seen++; return true })
					if seen != nodes || CountNodes(c) != nodes {
						errs <- fmt.Sprintf("walked %d nodes, counted %d, want %d", seen, CountNodes(c), nodes)
					}
				case 3:
					if d := c.Clone(); d.String() != want || d.IndexCache() != nil {
						errs <- "a clone of the indexed root read " + d.String()
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		if !c.IndexCacheable() || c.IndexCache() == nil {
			t.Fatal("the frozen clone kept no index box")
		}
	}
}

// TestRetainedBytesPerNode bounds what a parsed tree holds live, per node:
// the node itself, its share of its parent's one content list, and the
// strings it keeps. A ladder-shaped document of 2 000 sections retains
// about 84 bytes a node; the bound sits halfway to the 128 bytes a 120-byte
// node with two lists per element retains, so a node grown back fails it.
func TestRetainedBytesPerNode(t *testing.T) {
	const bound = 106
	perNode, nodes := retainedPerNode(ladderDoc(2000))
	t.Logf("%.1f B/node over %d nodes", perNode, nodes)
	if perNode > bound {
		t.Errorf("a parsed ladder document retains %.1f B/node, bound %d", perNode, bound)
	}
}
