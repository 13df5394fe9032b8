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
		frag, err := ParseFragment(input)
		_ = frag
		_ = err
	})
}

// FuzzChunkInvariance asserts what one tokenizer still has to get right once
// there is no second grammar to disagree with: where the window's edges fall
// must not matter (in-memory vs one byte per read), and validating without
// building must reach the verdict building reaches (a projection that keeps
// only the root's shell sends everything below it through SkipElement).
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
		want := parseResult(Parse(input))
		if got := parseResult(ParseReader(iotest.OneByteReader(strings.NewReader(input)))); got != want {
			t.Fatalf("one-byte reader:\n got %s\nwant %s", got, want)
		}
		_, _, err := ParseProjectedStats(strings.NewReader(input), rootOnly, ParseOptions{})
		if err != nil && err.Error() != want || err == nil && !strings.HasPrefix(want, "ok ") {
			t.Fatalf("everything pruned: err %v, full build: %s", err, want)
		}
	})
}
