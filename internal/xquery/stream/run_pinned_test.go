package stream

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lopsided/internal/xmltree"
)

// runPinned classifies src (raw and O2-optimized must agree) and runs the
// plan over doc, rendering everything Run reports.
func runPinned(t *testing.T, src, doc string) string {
	t.Helper()
	var got [2]string
	for i, optimize := range []bool{false, true} {
		p, reason := classifyQuery(t, src, optimize)
		if p == nil {
			t.Fatalf("%q (opt=%v) did not classify: %s", src, optimize, reason)
		}
		out, st, err := p.Run(strings.NewReader(doc), xmltree.ParseOptions{})
		got[i] = fmt.Sprintf("out=%q matches=%d bytes=%d err=%v", out, st.Matches, st.BytesScanned, err)
	}
	if got[0] != got[1] {
		t.Errorf("%q: raw and optimized plans disagree:\n raw %s\n opt %s", src, got[0], got[1])
	}
	return got[0]
}

const (
	nestDoc = `<a><a><a/></a></a>`
	shopDoc = `<shop><!-- head --><dept n="d1"><item k="k7" id="1">lamp<?pi x?></item><item k="k8" id="2"><item k="k7" id="3"/></item></dept>` +
		`<dept n="d2"><item k="k7" id="4"><!-- c -->t&amp;<b>x</b></item><skip><item k="k7" id="5"/></skip></dept></shop><!-- tail -->`
)

// pinnedRuns is the SAX tier's observable behaviour — serialized result,
// Matches, BytesScanned, error text and position — captured from the commit
// before Plan.Run's private token loop was replaced by the projected
// builder's matcher with a match sink (PIN_PRINT=1 go test -run
// TestPinnedRuns prints the rows). It must stay byte-identical, with one
// deliberate delta since: a run that fails mid-document reports the bytes it
// scanned up to the error next to the matches it had counted (the capture
// had bytes=0 on those seven rows), so a failed EvalReader can say how far
// it got.
var pinnedRuns = []struct{ src, doc, want string }{
	{"count(//item)", shopDoc,
		"out=\"5\" matches=5 bytes=251 err=<nil>"},
	{"count(/shop/dept/item)", shopDoc,
		"out=\"3\" matches=3 bytes=251 err=<nil>"},
	{"exists(//item[@id = \"3\"])", shopDoc,
		"out=\"true\" matches=1 bytes=251 err=<nil>"},
	{"exists(//item[@id = \"zzz\"])", shopDoc,
		"out=\"false\" matches=0 bytes=251 err=<nil>"},
	{"empty(//missing)", shopDoc,
		"out=\"true\" matches=0 bytes=251 err=<nil>"},
	{"empty(//dept)", shopDoc,
		"out=\"false\" matches=2 bytes=251 err=<nil>"},
	{"count(//*)", shopDoc,
		"out=\"10\" matches=10 bytes=251 err=<nil>"},
	{"count(//item[@k = 'k7'])", shopDoc,
		"out=\"4\" matches=4 bytes=251 err=<nil>"},
	{"count(//item[@k = 'k7'][@id = '3'])", shopDoc,
		"out=\"1\" matches=1 bytes=251 err=<nil>"},
	{"count(/shop/dept[@n = 'd2']//item['k7' = @k])", shopDoc,
		"out=\"2\" matches=2 bytes=251 err=<nil>"},
	{"//dept[@n = 'd1']/item[@k = 'k8']/item", shopDoc,
		"out=\"<item k=\\\"k7\\\" id=\\\"3\\\"/>\" matches=1 bytes=251 err=<nil>"},
	{"count(//item/@id)", shopDoc,
		"out=\"5\" matches=5 bytes=251 err=<nil>"},
	{"count(//item/@*)", shopDoc,
		"out=\"10\" matches=10 bytes=251 err=<nil>"},
	{"//item/@id", shopDoc,
		"out=\"id=\\\"1\\\" id=\\\"2\\\" id=\\\"3\\\" id=\\\"4\\\" id=\\\"5\\\"\" matches=5 bytes=251 err=<nil>"},
	{"//dept/@*", shopDoc,
		"out=\"n=\\\"d1\\\" n=\\\"d2\\\"\" matches=2 bytes=251 err=<nil>"},
	{"/shop/dept/item[@k = 'k7']/@id", shopDoc,
		"out=\"id=\\\"1\\\" id=\\\"4\\\"\" matches=2 bytes=251 err=<nil>"},
	{"//x/@v", "<r><x v=\"a&amp;&quot;b&lt;\"/></r>",
		"out=\"v=\\\"a&amp;&quot;b&lt;\\\"\" matches=1 bytes=33 err=<nil>"},
	{"//item", shopDoc,
		"out=\"<item k=\\\"k7\\\" id=\\\"1\\\">lamp<?pi x?></item> <item k=\\\"k8\\\" id=\\\"2\\\"><item k=\\\"k7\\\" id=\\\"3\\\"/></item> <item k=\\\"k7\\\" id=\\\"3\\\"/> <item k=\\\"k7\\\" id=\\\"4\\\"><!-- c -->t&amp;<b>x</b></item> <item k=\\\"k7\\\" id=\\\"5\\\"/>\" matches=5 bytes=251 err=<nil>"},
	{"/shop/dept/item", shopDoc,
		"out=\"<item k=\\\"k7\\\" id=\\\"1\\\">lamp<?pi x?></item> <item k=\\\"k8\\\" id=\\\"2\\\"><item k=\\\"k7\\\" id=\\\"3\\\"/></item> <item k=\\\"k7\\\" id=\\\"4\\\"><!-- c -->t&amp;<b>x</b></item>\" matches=3 bytes=251 err=<nil>"},
	{"//skip//item", shopDoc,
		"out=\"<item k=\\\"k7\\\" id=\\\"5\\\"/>\" matches=1 bytes=251 err=<nil>"},
	{"//b", shopDoc,
		"out=\"<b>x</b>\" matches=1 bytes=251 err=<nil>"},
	{"//a", nestDoc,
		"out=\"<a><a><a/></a></a> <a><a/></a> <a/>\" matches=3 bytes=18 err=<nil>"},
	{"//e", "<r><e/><e x=\"1\"/><e></e></r>",
		"out=\"<e/> <e x=\\\"1\\\"/> <e/>\" matches=3 bytes=28 err=<nil>"},
	{"count(//a//a)", nestDoc,
		"out=\"2\" matches=2 bytes=18 err=<nil>"},
	{"//a//a", nestDoc,
		"out=\"<a><a/></a> <a/>\" matches=2 bytes=18 err=<nil>"},
	{"count(//a)", "<a><a><a><a><a/></a></a></a></a>",
		"out=\"5\" matches=5 bytes=32 err=<nil>"},
	{"count(/a/a)", nestDoc,
		"out=\"1\" matches=1 bytes=18 err=<nil>"},
	{"count(/r/keep/x)", "<r><keep><x/></keep><dead><y><z/></y></dead></r>",
		"out=\"1\" matches=1 bytes=48 err=<nil>"},
	{"count(/r/keep/x)", "<r><keep><x/></keep><dead><y></z></y></dead></r>",
		"out=\"\" matches=1 bytes=32 err=xml: 1:33: end tag </z> does not match <y>"},
	{"count(/r/keep/x)", "<r><keep><x/></keep><dead a=\"1\" a=\"2\"/></r>",
		"out=\"\" matches=1 bytes=37 err=xml: 1:38: duplicate attribute \"a\" on <dead>"},
	{"count(/r/keep/x)", "<r><keep><x/></keep><dead>&bogus;</dead></r>",
		"out=\"\" matches=1 bytes=26 err=xml: 1:27: unknown entity &bogus;"},
	{"exists(//person)", "<site><person/><broken attr=\"x</site>",
		"out=\"\" matches=1 bytes=30 err=xml: 1:31: '<' in attribute value"},
	{"exists(//person)", "<site><person/></site><extra/>",
		"out=\"\" matches=1 bytes=22 err=xml: 1:23: multiple root elements"},
	{"count(//item)", "<site><item></site>",
		"out=\"\" matches=1 bytes=18 err=xml: 1:19: end tag </site> does not match <item>"},
	{"//item", "<site><item>text",
		"out=\"\" matches=1 bytes=16 err=xml: 1:17: unterminated element <item>"},
	{"count(//item)", "",
		"out=\"\" matches=0 bytes=0 err=xml: 1:1: document has no root element"},
}

func TestPinnedRuns(t *testing.T) {
	print := os.Getenv("PIN_PRINT") != ""
	for _, row := range pinnedRuns {
		got := runPinned(t, row.src, row.doc)
		if print {
			fmt.Printf("\t{%q, %q,\n\t\t%q},\n", row.src, row.doc, got)
			continue
		}
		if got != row.want {
			t.Errorf("%q over %q:\n got %s\nwant %s", row.src, row.doc, got, row.want)
		}
	}
}
