package xmltree

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzParse asserts the panic contract: no input, however malformed, may
// panic the parser — every failure must be a returned *ParseError.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a b="c">text</a>`,
		`<?xml version="1.0"?><root><child attr='v'>&amp;&#65;</child></root>`,
		`<a><!-- comment --><?pi data?><![CDATA[<raw>]]></a>`,
		`<a><b><c/></b></a>`,
		`<!DOCTYPE html [ <!ENTITY x "y"> ]><html/>`,
		`<a`, `</a>`, `<a>&bad;</a>`, `<a b=c/>`, `<a><b></a></b>`,
		"<a>\xff\xfe</a>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Real documents from the repo's test corpus, when run from the source
	// tree (the corpus dir is absent in some fuzz-worker contexts).
	if files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.xml")); err == nil {
		for _, path := range files {
			if data, err := os.ReadFile(path); err == nil {
				f.Add(string(data))
			}
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		doc, err := Parse(input)
		if err == nil && doc == nil {
			t.Fatal("Parse returned nil document without error")
		}
		if err == nil {
			checkBuilt(t, doc)
		}
		frag, err := ParseFragment(input)
		if err == nil {
			for _, n := range frag {
				checkBuilt(t, n)
			}
		}
	})
}

// checkBuilt asserts what every tree the builder returns owes its readers
// and mutators: every child's and every attribute's Parent is the node
// whose list holds it; an element's one content list holds all its
// attributes before any child, and every list is exact (cap == len), so
// growing one reallocates it instead of writing into the list carved after
// it; and under a numbered root the ordinals strictly increase in
// pre-order.
func checkBuilt(t *testing.T, root *Node) {
	t.Helper()
	numbered := root.Numbered()
	var last *Node
	inOrder := func(n *Node) {
		if numbered && last != nil && n.ord <= last.ord {
			t.Fatalf("ordinal %d of %v %q does not follow %d of %v %q", n.ord, n.Kind, n.Name, last.ord, last.Kind, last.Name)
		}
		last = n
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		inOrder(n)
		list := n.list()
		if cap(list) != len(list) {
			t.Fatalf("the list of %v %q has cap %d, len %d", n.Kind, n.Name, cap(list), len(list))
		}
		for i, k := range list {
			if k.Parent != n {
				t.Fatalf("%v %q in the list of %v %q has another Parent", k.Kind, k.Name, n.Kind, n.Name)
			}
			if attr := k.Kind == AttributeNode; attr != (i < int(n.nattr)) {
				t.Fatalf("%v %q at %d of the list of %v %q, which has %d attributes first", k.Kind, k.Name, i, n.Kind, n.Name, n.nattr)
			}
		}
		for _, a := range n.attrs() {
			inOrder(a)
		}
		for _, c := range n.kids() {
			walk(c)
		}
	}
	walk(root)
}

// FuzzChunkInvariance asserts what one tokenizer still has to get right once
// there is no second grammar to disagree with: where the window's edges fall
// must not matter (in-memory vs one byte per read), to the tree and to every
// token, each rendered before the next call may refill the window its views
// point into; and validating without building must reach the verdict
// building reaches (a projection that keeps only the root's shell sends
// everything below it through SkipElement).
func FuzzChunkInvariance(f *testing.F) {
	for _, c := range grammarCases {
		f.Add(c.in)
	}
	f.Add(projDoc)
	rootOnly := &Projection{Paths: []ProjPath{{Steps: []ProjStep{{Name: "*"}}}}}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 { // one read per byte: long inputs only slow the search down
			return
		}
		doc, err := Parse(input)
		want := parseResult(doc, err)
		rdoc, rerr := ParseReader(iotest.OneByteReader(strings.NewReader(input)))
		if got := parseResult(rdoc, rerr); got != want {
			t.Fatalf("one-byte reader:\n got %s\nwant %s", got, want)
		}
		mem := scanString(input, ParseOptions{}, false)
		oneByte := NewScanner(iotest.OneByteReader(strings.NewReader(input)), ParseOptions{})
		if got, want := tokenTrace(oneByte), tokenTrace(&mem); got != want {
			t.Fatalf("one-byte reader tokens:\n got %s\nwant %s", got, want)
		}
		if err == nil {
			checkBuilt(t, doc)
			checkBuilt(t, rdoc)
		}
		pdoc, _, err := ParseProjectedStats(strings.NewReader(input), rootOnly, ParseOptions{})
		if err != nil && err.Error() != want || err == nil && !strings.HasPrefix(want, "ok ") {
			t.Fatalf("everything pruned: err %v, full build: %s", err, want)
		}
		if err == nil {
			checkBuilt(t, pdoc)
		}
	})
}
