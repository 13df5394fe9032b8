package xmltree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	doc, err := Parse(`<?xml version="1.0"?><root a="1"><kid>hi</kid></root>`)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.DocumentElement()
	if root.Name != "root" {
		t.Fatalf("root = %q", root.Name)
	}
	if v, _ := root.Attr("a"); v != "1" {
		t.Fatal("attr a")
	}
	if root.Children()[0].Name != "kid" || root.Children()[0].StringValue() != "hi" {
		t.Fatal("kid")
	}
}

func TestParseSelfClosing(t *testing.T) {
	doc := MustParse(`<a><b/><c x="y"/></a>`)
	a := doc.DocumentElement()
	if len(a.Children()) != 2 {
		t.Fatalf("children = %d", len(a.Children()))
	}
	if v, _ := a.Children()[1].Attr("x"); v != "y" {
		t.Fatal("attr on self-closing")
	}
}

func TestParseEntities(t *testing.T) {
	doc := MustParse(`<a b="&lt;&amp;&quot;&#65;&#x42;">x &gt; y &apos;</a>`)
	el := doc.DocumentElement()
	if v, _ := el.Attr("b"); v != `<&"AB` {
		t.Fatalf("attr entities = %q", v)
	}
	if sv := el.StringValue(); sv != "x > y '" {
		t.Fatalf("text entities = %q", sv)
	}
}

func TestParseCDATA(t *testing.T) {
	doc := MustParse(`<a><![CDATA[<not-a-tag> & friends]]></a>`)
	if sv := doc.StringValue(); sv != "<not-a-tag> & friends" {
		t.Fatalf("CDATA = %q", sv)
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	doc := MustParse(`<!-- lead --><a><!--in--><?target data?></a><!-- trail -->`)
	if len(doc.Children()) != 3 {
		t.Fatalf("doc children = %d", len(doc.Children()))
	}
	a := doc.DocumentElement()
	if a.Children()[0].Kind != CommentNode || a.Children()[0].Data != "in" {
		t.Fatal("inner comment")
	}
	if a.Children()[1].Kind != PINode || a.Children()[1].Name != "target" || a.Children()[1].Data != "data" {
		t.Fatal("PI")
	}
}

func TestParseDoctypeSkipped(t *testing.T) {
	doc := MustParse(`<!DOCTYPE html [ <!ENTITY x "y"> ]><a/>`)
	if doc.DocumentElement().Name != "a" {
		t.Fatal("doctype not skipped")
	}
}

func TestParseTrimWhitespace(t *testing.T) {
	src := "<a>\n  <b/>\n  <c>keep me</c>\n</a>"
	doc, err := ParseWith(src, ParseOptions{TrimWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	a := doc.DocumentElement()
	if len(a.Children()) != 2 {
		t.Fatalf("children = %d, want 2", len(a.Children()))
	}
	untrimmed := MustParse(src)
	if len(untrimmed.DocumentElement().Children()) != 5 {
		t.Fatalf("untrimmed children = %d, want 5", len(untrimmed.DocumentElement().Children()))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"empty", ``, "no root element"},
		{"mismatch", `<a></b>`, "does not match"},
		{"unterminated", `<a><b>`, "unterminated element"},
		{"two roots", `<a/><b/>`, "multiple root elements"},
		{"dup attr", `<a x="1" x="2"/>`, "duplicate attribute"},
		{"bad entity", `<a>&nope;</a>`, "unknown entity"},
		{"lt in attr", `<a x="<"/>`, "'<' in attribute value"},
		{"unquoted attr", `<a x=1/>`, "quoted attribute"},
		{"bare text", `hello<a/>`, "unexpected content"},
		{"unterminated comment", `<a><!-- oops</a>`, "unterminated comment"},
		{"unterminated cdata", `<a><![CDATA[x</a>`, "unterminated CDATA"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", c.src, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("<a>\n  <b></c>\n</a>")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Fatalf("line = %d, want 2", pe.Line)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse(`<a>`)
}

func TestParseFragment(t *testing.T) {
	nodes, err := ParseFragment(`text <a/> more <b>x</b>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("fragment items = %d, want 4", len(nodes))
	}
	if nodes[0].Kind != TextNode || nodes[1].Name != "a" || nodes[3].StringValue() != "x" {
		t.Fatal("fragment contents")
	}
	for _, n := range nodes {
		if n.Parent != nil {
			t.Fatal("fragment nodes should be parentless")
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `<root a="1" b="x&amp;y"><kid>hi &lt;there&gt;</kid><empty/>tail</root>`
	doc := MustParse(src)
	out := doc.String()
	doc2 := MustParse(out)
	if !Equal(doc, doc2) {
		t.Fatalf("round trip changed tree:\n%s\n%s", out, doc2.String())
	}
}

func TestSerializeIndent(t *testing.T) {
	doc := MustParse(`<a><b><c/></b><d>text</d></a>`)
	out := Indent(doc)
	if !strings.Contains(out, "\n  <b>") {
		t.Fatalf("no indentation:\n%s", out)
	}
	// Mixed content preserved inline.
	if !strings.Contains(out, "<d>text</d>") {
		t.Fatalf("mixed content broken:\n%s", out)
	}
	reparsed, err := ParseWith(out, ParseOptions{TrimWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	trimmedOrig, _ := ParseWith(doc.String(), ParseOptions{TrimWhitespace: true})
	if !Equal(reparsed, trimmedOrig) {
		t.Fatal("indented output not equivalent")
	}
}

func TestSerializeFreeAttr(t *testing.T) {
	a := NewAttr("troubles", "1")
	if got := a.String(); got != `troubles="1"` {
		t.Fatalf("free attr = %q", got)
	}
}

func TestEscapeAttrControlChars(t *testing.T) {
	el := NewElement("e")
	el.SetAttr("a", "line1\nline2\ttab\"q")
	out := el.String()
	doc := MustParse(`<wrap>` + out + `</wrap>`)
	got, _ := doc.DocumentElement().Children()[0].Attr("a")
	if got != "line1\nline2\ttab\"q" {
		t.Fatalf("attr round trip = %q", got)
	}
}

// randomTree builds a random tree for property testing.
func randomTree(r *rand.Rand, depth int) *Node {
	el := NewElement(randomName(r))
	for i := r.Intn(3); i > 0; i-- {
		el.SetAttr(randomName(r), randomText(r))
	}
	if depth <= 0 {
		return el
	}
	for i := r.Intn(4); i > 0; i-- {
		switch r.Intn(3) {
		case 0:
			el.AppendChild(randomTree(r, depth-1))
		case 1:
			el.AppendChild(NewText(randomText(r)))
		case 2:
			el.AppendChild(NewComment("c" + randomName(r)))
		}
	}
	return el
}

func randomName(r *rand.Rand) string {
	letters := "abcdefg"
	n := 1 + r.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(letters[r.Intn(len(letters))])
	}
	return b.String()
}

func randomText(r *rand.Rand) string {
	chars := `ab <>&"' x`
	n := r.Intn(10)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(chars[r.Intn(len(chars))])
	}
	return b.String()
}

// TestQuickSerializeParseRoundTrip is the core round-trip property: for any
// tree, Parse(Serialize(t)) is structurally equal to t (modulo text-node
// coalescing, which the generator avoids by construction for adjacent text).
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		el := randomTree(r, 3)
		coalesceText(el)
		doc := NewDocument()
		doc.AppendChild(el)
		out := doc.String()
		doc2, err := Parse(out)
		if err != nil {
			t.Logf("serialize produced unparseable output: %v\n%s", err, out)
			return false
		}
		if !Equal(doc, doc2) {
			t.Logf("round trip mismatch:\n%s\n%s", out, doc2.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// coalesceText merges adjacent text children and drops empty ones, the
// normal form the parser produces.
func coalesceText(n *Node) {
	var out []*Node
	for _, c := range n.Children() {
		if c.Kind == TextNode {
			if c.Data == "" {
				continue
			}
			if len(out) > 0 && out[len(out)-1].Kind == TextNode {
				out[len(out)-1].Data += c.Data
				continue
			}
		} else if c.Kind == ElementNode {
			coalesceText(c)
		}
		out = append(out, c)
	}
	n.SetChildren(out)
}

// TestQuickCloneEqual: Clone always yields a structurally equal tree with
// fresh identity.
func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		el := randomTree(r, 3)
		c := el.Clone()
		return Equal(el, c) && c != el
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDocOrderTotal: CompareDocOrder is a strict total order over the
// nodes of a tree, and SortDocOrder agrees with Walk order.
func TestQuickDocOrderTotal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		el := randomTree(r, 3)
		doc := NewDocument()
		doc.AppendChild(el)
		var walkOrder []*Node
		Walk(doc, func(n *Node) bool { walkOrder = append(walkOrder, n); return true })
		shuffled := append([]*Node(nil), walkOrder...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sorted := SortDocOrder(shuffled)
		if len(sorted) != len(walkOrder) {
			return false
		}
		for i := range sorted {
			if sorted[i] != walkOrder[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
