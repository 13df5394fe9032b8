package xmltree

import (
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestNodeSize makes the next field added to every node of every tree a
// decision: 120 bytes is four scalars, two slices and the three
// copy-on-write words (src, shared, ibox).
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(*new(Node)); got != 120 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 120", got)
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
	got := el.RemoveChildAt(0)
	if got != a || a.Parent != nil {
		t.Fatal("RemoveChildAt wrong node or parent not cleared")
	}
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
	if el.AttrNode("y") == nil || el.AttrNode("y").Data != "2" {
		t.Fatal("AttrNode")
	}
	if !el.RemoveAttr("x") || el.RemoveAttr("x") {
		t.Fatal("RemoveAttr")
	}
	if _, ok := el.Attr("x"); ok {
		t.Fatal("x still present after remove")
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
	x := a.AttrNode("x")
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
