package stream

import (
	"strings"
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/optimizer"
	"lopsided/internal/xquery/parser"
)

const testDoc = `<site>
  <people>
    <person id="p1" featured="yes"><name>Ann</name></person>
    <person id="p2"><name>Bo</name></person>
  </people>
  <items>
    <item id="i1" featured="yes"><name>lamp</name><price>10</price></item>
    <item id="i2"><name>rug</name><nested><item id="i3"><name>inner</name></item></nested></item>
  </items>
  <!-- a comment -->
</site>`

// evalFull runs the materializing engine over the same query and document.
func evalFull(t *testing.T, src, doc string) string {
	t.Helper()
	ip, err := interp.Compile(src, interp.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	d, err := xmltree.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ip.EvalString(xdm.NewNode(d), nil)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return out
}

// classifyQuery parses, optionally optimizes, and classifies.
func classifyQuery(t *testing.T, src string, optimize bool) (*Plan, string) {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if optimize {
		optimizer.Optimize(m, optimizer.Options{Level: 2})
	}
	return Classify(m)
}

var streamableQueries = []string{
	`count(//item)`,
	`count(/site/people/person)`,
	`count(//item[@featured = "yes"])`,
	`count(//person/@id)`,
	`exists(//item[@id = "i3"])`,
	`exists(//item[@id = "zzz"])`,
	`empty(//missing)`,
	`empty(//person)`,
	`//person/name`,
	`/site/items/item`,
	`//item/@id`,
	`count(//*)`,
	`//nested//name`,
	`count(/site//name)`,
	`items/item/name`,
}

func TestStreamMatchesEngine(t *testing.T) {
	for _, src := range streamableQueries {
		for _, optimize := range []bool{false, true} {
			p, reason := classifyQuery(t, src, optimize)
			if p == nil {
				t.Fatalf("%q (opt=%v) did not classify: %s", src, optimize, reason)
			}
			got, _, err := p.Run(strings.NewReader(testDoc), xmltree.ParseOptions{})
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			want := evalFull(t, src, testDoc)
			if got != want {
				t.Fatalf("%q (opt=%v): stream=%q engine=%q", src, optimize, got, want)
			}
		}
	}
}

func TestClassifyRejects(t *testing.T) {
	for _, src := range []string{
		`sum(//price)`,
		`count(//item/text())`,
		`//item[1]`,
		`//item[price > 5]`,
		`//item/..`,
		`for $i in //item return $i`,
		`count(//item) + 1`,
		`declare variable $x := 1; count(//item)`,
		`//item/@id/../name`,
		`.`,
		`/`,
	} {
		p, _ := classifyQuery(t, src, false)
		if p != nil {
			t.Fatalf("%q should not classify (got %s)", src, p)
		}
	}
}

func TestStreamNestedSerialize(t *testing.T) {
	// Nested matches appear both standalone and inside the outer match.
	p, reason := classifyQuery(t, `//item`, false)
	if p == nil {
		t.Fatal(reason)
	}
	got, _, err := p.Run(strings.NewReader(testDoc), xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := evalFull(t, `//item`, testDoc)
	if got != want {
		t.Fatalf("stream=%q engine=%q", got, want)
	}
	if strings.Count(got, `id="i3"`) != 2 {
		t.Fatalf("inner item should serialize twice (inside outer and standalone): %q", got)
	}
}

func TestStreamParseError(t *testing.T) {
	p, _ := classifyQuery(t, `count(//item)`, false)
	bad := `<site><item></site>`
	_, wantErr := xmltree.Parse(bad)
	_, _, gotErr := p.Run(strings.NewReader(bad), xmltree.ParseOptions{})
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("stream err %v, parser err %v", gotErr, wantErr)
	}
	// Errors after the last match must still surface (scan-to-EOF parity).
	p2, _ := classifyQuery(t, `exists(//person)`, false)
	bad2 := `<site><person/><broken attr="x</site>`
	_, wantErr2 := xmltree.Parse(bad2)
	_, _, gotErr2 := p2.Run(strings.NewReader(bad2), xmltree.ParseOptions{})
	if gotErr2 == nil || wantErr2 == nil || gotErr2.Error() != wantErr2.Error() {
		t.Fatalf("stream err %v, parser err %v", gotErr2, wantErr2)
	}
}

func TestStreamDepthStats(t *testing.T) {
	deep := `<a><a><a><a><a/></a></a></a></a>`
	p, _ := classifyQuery(t, `count(//a)`, false)
	out, st, err := p.Run(strings.NewReader(deep), xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != "5" {
		t.Fatalf("count = %q", out)
	}
	if st.Matches != 5 || st.BytesScanned != int64(len(deep)) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStreamRepeatedDescendantSteps: every element of a same-named chain
// keeps every step of //a//a//a//a alive, reached along many ancestor
// combinations. The count is one per element at depth >= 4 and the scan is
// linear in the document (a matcher that kept duplicate states took seconds
// at depth 200 and did not finish at 400).
func TestStreamRepeatedDescendantSteps(t *testing.T) {
	const depth = 1000
	deep := strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	p, reason := classifyQuery(t, `count(//a//a//a//a)`, true)
	if p == nil {
		t.Fatalf("not streamable: %s", reason)
	}
	out, st, err := p.Run(strings.NewReader(deep), xmltree.ParseOptions{})
	if err != nil || out != "997" || st.Matches != depth-3 {
		t.Fatalf("out=%q stats=%+v err=%v", out, st, err)
	}
}

func TestStreamSkipsDeadBranches(t *testing.T) {
	doc := `<r><keep><x/></keep><dead><y><z/></y></dead></r>`
	p, _ := classifyQuery(t, `count(/r/keep/x)`, false)
	out, _, err := p.Run(strings.NewReader(doc), xmltree.ParseOptions{})
	if err != nil || out != "1" {
		t.Fatalf("out=%q err=%v", out, err)
	}
}
