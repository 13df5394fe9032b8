package project

import (
	"strings"
	"testing"

	"lopsided/internal/xquery/optimizer"
	"lopsided/internal/xquery/parser"
)

// analyzeQuery parses (without optimizing) and analyzes a query.
func analyzeQuery(t *testing.T, src string) Result {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Analyze(m)
}

// analyzeOptimized runs the O2 pipeline first, the shape CompileStream uses.
func analyzeOptimized(t *testing.T, src string) Result {
	t.Helper()
	m, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	optimizer.Optimize(m, optimizer.Options{Level: 2})
	return Analyze(m)
}

func projString(t *testing.T, r Result) string {
	t.Helper()
	if r.Proj == nil {
		t.Fatalf("analysis bailed: %s", r.Reason)
	}
	return r.Proj.String()
}

func TestAnalyzeShellCount(t *testing.T) {
	r := analyzeQuery(t, `count(/site/people/person)`)
	got := projString(t, r)
	for _, want := range []string{"/site", "/site/people", "/site/people/person"} {
		if !strings.Contains(got, want) {
			t.Fatalf("projection %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "#subtree") {
		t.Fatalf("count query should not need subtrees: %q", got)
	}
}

func TestAnalyzeDescendantAggregate(t *testing.T) {
	r := analyzeQuery(t, `count(//item)`)
	got := projString(t, r)
	if !strings.Contains(got, "//item") || strings.Contains(got, "#subtree") {
		t.Fatalf("projection = %q", got)
	}
}

func TestAnalyzeSerializeSubtree(t *testing.T) {
	// The body result is serialized: terminal path needs the subtree.
	r := analyzeQuery(t, `/site/regions/europe`)
	got := projString(t, r)
	if !strings.Contains(got, "/site/regions/europe#subtree") {
		t.Fatalf("projection = %q", got)
	}
	if strings.Contains(got, "/site#subtree") || strings.Contains(got, "/site/regions#subtree") {
		t.Fatalf("ancestors over-retained: %q", got)
	}
}

func TestAnalyzeAttributeOnly(t *testing.T) {
	r := analyzeQuery(t, `count(//item[@featured = "yes"])`)
	got := projString(t, r)
	if !strings.Contains(got, "@featured") {
		t.Fatalf("projection %q missing attribute mark", got)
	}
	if strings.Contains(got, "#subtree") {
		t.Fatalf("attribute comparison should not retain subtrees: %q", got)
	}
}

func TestAnalyzeComparisonSubtree(t *testing.T) {
	// The predicate atomizes price children.
	r := analyzeQuery(t, `count(/site/item[price > 10])`)
	got := projString(t, r)
	if !strings.Contains(got, "/site/item/price#subtree") {
		t.Fatalf("projection = %q", got)
	}
}

func TestAnalyzeFLWORVars(t *testing.T) {
	r := analyzeQuery(t, `for $i in /site/item where $i/sold = "y" return string($i/name)`)
	got := projString(t, r)
	if !strings.Contains(got, "/site/item/sold#subtree") || !strings.Contains(got, "/site/item/name#subtree") {
		t.Fatalf("projection = %q", got)
	}
	// $i itself is never value-used whole.
	if strings.Contains(got, "/site/item#subtree") {
		t.Fatalf("FLWOR over-retained the binding: %q", got)
	}
}

func TestAnalyzeBailReverseAxis(t *testing.T) {
	for _, src := range []string{
		`//item/..`,
		`//item/parent::site`,
		`//item/ancestor::*`,
		`//item/following-sibling::item`,
		`//item/preceding::*`,
		`count(//item[ancestor::closed])`,
	} {
		r := analyzeQuery(t, src)
		if r.Proj != nil {
			t.Fatalf("%q should bail, got %q", src, r.Proj.String())
		}
	}
}

func TestAnalyzeBailRoot(t *testing.T) {
	r := analyzeQuery(t, `declare function local:up($x) { root($x) }; local:up(//item)`)
	if r.Proj != nil {
		t.Fatalf("root() should bail, got %q", r.Proj.String())
	}
}

func TestAnalyzeUserFunctionArgsSubtree(t *testing.T) {
	r := analyzeQuery(t, `declare function local:f($x) { $x/price * 2 }; local:f(//item[1])`)
	got := projString(t, r)
	if !strings.Contains(got, "//item#subtree") {
		t.Fatalf("user-function arg must be whole subtree: %q", got)
	}
}

// TestAnalyzeFunctionReadsGlobal: a function body that reads a prolog
// variable holding document nodes sees them whole, as it sees its
// arguments; before, the projection kept only the shells the prolog's own
// path marked, and the body's child step found nothing.
func TestAnalyzeFunctionReadsGlobal(t *testing.T) {
	r := analyzeQuery(t, `declare variable $top := /r; declare function local:m() { $top/* }; count(local:m())`)
	if got := projString(t, r); !strings.Contains(got, "/r#subtree") {
		t.Fatalf("a global a function reads must be whole subtree: %q", got)
	}
}

func TestAnalyzeKindTestSubtree(t *testing.T) {
	r := analyzeQuery(t, `count(//item/text())`)
	got := projString(t, r)
	if !strings.Contains(got, "//item#subtree") {
		t.Fatalf("kind test needs subtree: %q", got)
	}
}

func TestAnalyzeContextSerialize(t *testing.T) {
	// "." serialized → whole document.
	r := analyzeQuery(t, `.`)
	if r.Proj == nil {
		t.Fatalf("bailed: %s", r.Reason)
	}
	if !r.Proj.EverythingNeeded() {
		t.Fatalf("serializing the context item must retain everything: %q", r.Proj.String())
	}
}

func TestAnalyzePureComputation(t *testing.T) {
	r := analyzeQuery(t, `sum(1 to 100)`)
	if r.Proj == nil {
		t.Fatalf("bailed: %s", r.Reason)
	}
	if len(r.Proj.Paths) != 0 {
		t.Fatalf("doc-free query should project nothing, got %q", r.Proj.String())
	}
}

func TestAnalyzeDescUnderDesc(t *testing.T) {
	r := analyzeQuery(t, `count(//open_auction//bidder)`)
	got := projString(t, r)
	if !strings.Contains(got, "//open_auction//bidder") {
		t.Fatalf("projection = %q", got)
	}
}

func TestAnalyzeOptimizedForms(t *testing.T) {
	// The optimizer may fuse descendant steps; analysis must survive both
	// raw and optimized ASTs with compatible projections.
	for _, src := range []string{
		`count(//item)`,
		`count(/site//item[@id = "7"])`,
		`string(//person[1]/name)`,
		`for $p in //person return count($p/watches)`,
	} {
		raw := analyzeQuery(t, src)
		opt := analyzeOptimized(t, src)
		if (raw.Proj == nil) != (opt.Proj == nil) {
			t.Fatalf("%q: raw bail=%v opt bail=%v", src, raw.Proj == nil, opt.Proj == nil)
		}
	}
}

func TestAnalyzeOrderBySubtree(t *testing.T) {
	r := analyzeQuery(t, `for $i in /s/i order by $i/k return count($i/v)`)
	got := projString(t, r)
	if !strings.Contains(got, "/s/i/k#subtree") {
		t.Fatalf("order-by key needs subtree: %q", got)
	}
}

func TestAnalyzeUnionPaths(t *testing.T) {
	r := analyzeQuery(t, `count(/a/b | /a/c)`)
	got := projString(t, r)
	if !strings.Contains(got, "/a/b") || !strings.Contains(got, "/a/c") {
		t.Fatalf("projection = %q", got)
	}
}

func TestFoldedAttrPredicateMarked(t *testing.T) {
	// At O1+ the optimizer folds [@featured = "yes"] into the step's access
	// path; the projection must still retain the attribute or the projected
	// evaluation sees every predicate as false. (The fold used to remove the
	// predicate from Preds and the analysis had to read Step.Access; now the
	// predicate stays on the step and the analysis never looks at Access.)
	res := analyzeOptimized(t, `count(//person[@featured = "yes"])`)
	if res.Proj == nil {
		t.Fatal(res.Reason)
	}
	s := res.Proj.String()
	if !strings.Contains(s, "@featured") {
		t.Fatalf("folded attribute predicate not retained: %s", s)
	}
}

// TestBailReasonOrder pins which reason Analyze reports when a module holds
// more than one construct that defeats projection: the first escape (upward
// axis, fn:root) in the order function bodies, prolog variables, body — each
// in source order, a path step's axis before its predicates — and any escape
// ahead of a bail of the analysis proper. The rows marked "moved" reported
// the other of their two reasons while the pre-scan checked all of a path's
// axes before any predicate and ran interleaved with the analysis.
func TestBailReasonOrder(t *testing.T) {
	const axis, root = "axis parent is not projectable", "fn:root escapes the projection"
	for _, tc := range []struct{ src, want string }{
		{`//a[root(.)]/parent::b`, root}, // moved
		{`//a/parent::b[root(.)]`, axis},
		{`//a[b/..]/c[root(.)]`, axis},
		{`(root(.))/a/..`, root}, // moved
		{`(//a/.., root(.))`, axis},
		{`(root(.), //a/..)`, root},
		{`for $x in //a return ($x/.., root($x))`, axis},
		{`for $x in //a[root(.)] return $x/..`, root},
		{`declare function local:f($n) { root($n) }; //a/..`, root},
		{`declare function local:f($n) { $n/.. }; root(.)`, axis},
		{`declare variable $v := //a/..; root(.)`, axis},
		{`declare variable $v := root(.); //a/..`, root},
		{`declare variable $v := //a/..; declare function local:f($n) { root($n) }; 1`, root},
		{`declare variable $v := nosuch(.); //a/..`, axis},  // moved
		{`declare variable $v := nosuch(.); root(.)`, root}, // moved
		{`(nosuch(.), //a/..)`, axis},
		{`declare variable $v := nosuch(.); //a`, "unknown function nosuch"},
	} {
		r := analyzeQuery(t, tc.src)
		if r.Proj != nil || r.Reason != tc.want {
			t.Errorf("%s:\n got proj=%v reason=%q\nwant reason %q", tc.src, r.Proj, r.Reason, tc.want)
		}
	}
}

// TestAnalyzeBuiltinRows: a built-in projects as its row (funclib.Func) says.
// Every registered function has one, so "unknown function" is left for names
// nobody declared; the five numeric functions, once missing from this
// package's name lists, are atomizing consumers like the rest; and the nodes
// fn:trace returns are those of its LAST argument (every argument is
// serialized to the tracer, so all are retained whole).
func TestAnalyzeBuiltinRows(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`sum(for $i in //item return round($i/@n))`, "//item/@n"},
		{`abs(//item/price)`, "//item //item/price#subtree"},
		{`count(floor(//a))`, "//a#subtree"},
		{`count(trace(//label, //item)/name)`, "//label#subtree //item#subtree //item/name"},
		{`count(remove(//item, 1))`, "//item"},
		{`insert-before(//a, 1, //b)/c`, "//a //b //a/c#subtree //b/c#subtree"},
		{`count(reverse(//item))`, "//item"},
		{`data(//item)`, "//item#subtree"},
		{`xs:positiveInteger(//n)`, "//n#subtree"},
	} {
		if got := projString(t, analyzeQuery(t, c.src)); got != c.want {
			t.Errorf("%s: projection %q, want %q", c.src, got, c.want)
		}
	}
	if r := analyzeQuery(t, `count(//a[nosuch(.)])`); r.Proj != nil || r.Reason != "unknown function nosuch" {
		t.Errorf("undeclared function: %+v", r)
	}
}
