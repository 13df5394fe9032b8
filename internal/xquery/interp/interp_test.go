package interp

import (
	"fmt"
	"strings"
	"testing"

	"lopsided/internal/obs"
	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
)

// run evaluates src with no context item and serializes the result.
func run(t *testing.T, src string) string {
	t.Helper()
	out, err := runE(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return out
}

func runE(src string) (string, error) {
	ip, err := Compile(src, Options{})
	if err != nil {
		return "", err
	}
	return ip.EvalString(nil, nil)
}

// runCtx evaluates src with a context document parsed from docSrc.
func runCtx(t *testing.T, src, docSrc string) string {
	t.Helper()
	ip, err := Compile(src, Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	doc := xmltree.MustParse(docSrc)
	out, err := ip.EvalString(xdm.NewNode(doc), nil)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return out
}

func TestLiteralsAndArithmetic(t *testing.T) {
	tests := []struct{ src, want string }{
		{`1 + 2`, "3"},
		{`2 * 3 + 4`, "10"},
		{`7 mod 3`, "1"},
		{`7 idiv 2`, "3"},
		{`6 div 4`, "1.5"},
		{`6 div 3`, "2"},
		{`-(3)`, "-3"},
		{`- 3 + 10`, "7"},
		{`1.5 + 1.5`, "3"},
		{`"hello"`, "hello"},
		{`1 to 4`, "1 2 3 4"},
		{`4 to 1`, ""},
		{`(1,2) , (3,4)`, "1 2 3 4"},
		{`()`, ""},
		{`1e2`, "100"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

// TestSequenceFlatteningLiteral is the exact example from the paper's data
// model section: (1,(2,3,4),(),(5,((6,7)))) = (1,2,3,4,5,6,7).
func TestSequenceFlatteningLiteral(t *testing.T) {
	got := run(t, `(1,(2,3,4),(),(5,((6,7))))`)
	if got != "1 2 3 4 5 6 7" {
		t.Fatalf("flattening: got %q", got)
	}
}

// TestPaperTable1 reproduces the sequence-indexing table from the paper's
// "Data Structures and Abstractions" section: make a sequence from X, Y, Z
// and try to get Y back with [2].
func TestPaperTable1(t *testing.T) {
	rows := []struct {
		label   string
		x, y, z string
		want    string
	}{
		{"Y itself", `1`, `2`, `3`, "2"},
		{"Some part of Y", `1`, `(2, "2a")`, `4`, "2"},
		{"Z", `1`, `()`, `3`, "3"},
		{"A part of X", `("1a","1b")`, `2`, `3`, "1b"},
		// The paper's table prints "3b" for this row; with draft (and 1.0)
		// flattening the second item of (1, "3a", "3b") is "3a". The row's
		// point — a part of Z leaks out instead of Y — holds either way.
		// EXPERIMENTS.md records the discrepancy.
		{"A part of Z", `1`, `()`, `("3a","3b")`, "3a"},
		{"Nothing", `()`, `(2)`, `()`, ""},
	}
	for _, row := range rows {
		t.Run(row.label, func(t *testing.T) {
			src := fmt.Sprintf(`let $X := %s let $Y := %s let $Z := %s return ($X,$Y,$Z)[2]`,
				row.x, row.y, row.z)
			if got := run(t, src); got != row.want {
				t.Errorf("%s: got %q, want %q", row.label, got, row.want)
			}
		})
	}
	// Final row: the attribute value, which works in the sequence
	// representation but errors in the element representation.
	seqSrc := `let $X := 1 let $Y := attribute y {"why?"} let $Z := 2 return ($X,$Y,$Z)[2]`
	if got := run(t, seqSrc); got != `y="why?"` {
		t.Errorf("attribute row (sequence rep): got %q", got)
	}
	elemSrc := `let $X := 1 let $Y := attribute y {"why?"} let $Z := 2 return <el>{$X}{$Y}{$Z}</el>`
	if _, err := runE(elemSrc); err == nil || !strings.Contains(err.Error(), "XQTY0024") {
		t.Errorf("attribute row (element rep) should raise XQTY0024, got %v", err)
	}
}

// TestAttributeFoldingLeading reproduces the paper's first attribute-folding
// example: let $x := attribute troubles {1} return <el> {$x} </el>
// yields <el troubles="1"/>.
func TestAttributeFoldingLeading(t *testing.T) {
	got := run(t, `let $x := attribute troubles {1} return <el> {$x} </el>`)
	if got != `<el troubles="1"/>` {
		t.Fatalf("attribute folding: got %q", got)
	}
}

// TestAttributeFoldingDuplicates reproduces the paper's duplicate-name
// example under all four policies.
func TestAttributeFoldingDuplicates(t *testing.T) {
	src := `let $a := attribute a {1}
	        let $b := attribute a {2}
	        let $c := attribute b {3}
	        return <el> {$a}{$b}{$c} </el>`
	compileWith := func(p DupAttrPolicy) (string, error) {
		ip, err := Compile(src, Options{DupAttr: p})
		if err != nil {
			return "", err
		}
		return ip.EvalString(nil, nil)
	}
	// Draft semantics: one of the duplicates survives. The paper shows the
	// two legal outcomes <el b="3" a="1"/> and <el b="3" a="2"/> (attribute
	// order is not significant).
	got, err := compileWith(DupAttrLastWins)
	if err != nil || got != `<el a="2" b="3"/>` {
		t.Errorf("last-wins: %q, %v", got, err)
	}
	got, err = compileWith(DupAttrFirstWins)
	if err != nil || got != `<el a="1" b="3"/>` {
		t.Errorf("first-wins: %q, %v", got, err)
	}
	// The Galax bug: both duplicates survive.
	got, err = compileWith(DupAttrGalaxBug)
	if err != nil || got != `<el a="1" a="2" b="3"/>` {
		t.Errorf("galax-bug: %q, %v", got, err)
	}
	// Final 1.0 semantics: error.
	_, err = compileWith(DupAttrError)
	if err == nil || !strings.Contains(err.Error(), "XQDY0025") {
		t.Errorf("strict: want XQDY0025, got %v", err)
	}
}

// TestAttributeAfterContentError reproduces the paper's third example:
// <el> "doom" {$x} </el> errors because the attribute follows text.
func TestAttributeAfterContentError(t *testing.T) {
	src := `let $x := attribute troubles {1} return <el> "doom" {$x} </el>`
	_, err := runE(src)
	if err == nil || !strings.Contains(err.Error(), "XQTY0024") {
		t.Fatalf("want XQTY0024, got %v", err)
	}
}

// TestGeneralComparisonQuirk is quirk #4 end to end.
func TestGeneralComparisonQuirk(t *testing.T) {
	tests := []struct{ src, want string }{
		{`1 = (1,2,3)`, "true"},
		{`(1,2,3) = 3`, "true"},
		{`1 = 3`, "false"},
		{`(1,2) != (1,2)`, "true"}, // existential !=: 1 != 2
		{`() = ()`, "false"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
	// Singleton operators reject sequences.
	if _, err := runE(`1 eq (1,2,3)`); err == nil {
		t.Error("1 eq (1,2,3) should be a type error")
	}
	if got := run(t, `1 eq 1`); got != "true" {
		t.Error("1 eq 1")
	}
	// Empty operand of a value comparison yields empty.
	if got := run(t, `() eq 1`); got != "" {
		t.Error("() eq 1 should be empty")
	}
}

func TestPathsOverDocument(t *testing.T) {
	doc := `<lib><book year="1983"><title>A</title></book><book year="2001"><title>B</title></book><video/></lib>`
	tests := []struct{ src, want string }{
		{`count(/lib/book)`, "2"},
		{`/lib/book[1]/title`, "<title>A</title>"},
		{`/lib/book[@year="1983"]/title`, "<title>A</title>"},
		{`/lib/book[2]/@year`, `year="2001"`},
		{`string(/lib/book[2]/@year)`, "2001"},
		{`count(//title)`, "2"},
		{`count(/lib/*)`, "3"},
		{`/lib/book[title="B"]/@year`, `year="2001"`},
		{`(//title)[last()]`, "<title>B</title>"},
		{`count(//book/title/parent::book)`, "2"},
		{`//title[1]/ancestor::lib/video`, "<video/>"},
		{`name(/lib/book[1]/..)`, "lib"},
		{`string-join(//book/title, ",")`, "A,B"},
		{`//book[not(@year="1983")]/title/text()`, "B"},
		{`count(/lib/book/self::book)`, "2"},
		{`count(//node())`, "8"},
		{`/lib/book[1]/following-sibling::*[1]/@year`, `year="2001"`},
		{`/lib/video/preceding-sibling::book[1]/@year`, `year="2001"`},
	}
	for _, tt := range tests {
		if got := runCtx(t, tt.src, doc); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestPathDocOrderAndDedup(t *testing.T) {
	doc := `<a><b><c/></b><b><c/></b></a>`
	// Union of overlapping sets is deduped in doc order.
	if got := runCtx(t, `count((//b | //c | //b))`, doc); got != "4" {
		t.Errorf("union dedup: %q", got)
	}
	if got := runCtx(t, `count(//b/.. )`, doc); got != "1" {
		t.Errorf("parent dedup: %q", got)
	}
	if got := runCtx(t, `count(//c except //b/c)`, doc); got != "0" {
		t.Errorf("except: %q", got)
	}
	if got := runCtx(t, `count(//c intersect //b/c)`, doc); got != "2" {
		t.Errorf("intersect: %q", got)
	}
}

func TestFLWOREval(t *testing.T) {
	tests := []struct{ src, want string }{
		{`for $x in (1,2,3) return $x * 2`, "2 4 6"},
		{`for $x at $i in ("a","b") return concat($i, $x)`, "1a 2b"},
		{`for $x in (1,2), $y in (10,20) return $x + $y`, "11 21 12 22"},
		{`let $x := 5 return $x + $x`, "10"},
		{`for $x in (1,2,3,4) where $x mod 2 = 0 return $x`, "2 4"},
		{`for $x in (3,1,2) order by $x return $x`, "1 2 3"},
		{`for $x in (3,1,2) order by $x descending return $x`, "3 2 1"},
		{`for $x in ("b","a","c") order by $x return $x`, "a b c"},
		{`for $p in ((1),(2)) return $p`, "1 2"},
		{`let $x := (1,2,3) return count($x)`, "3"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestFLWOROrderByEmptyAndSecondary(t *testing.T) {
	src := `for $x in (3, 1, 3, 2) order by ($x)[. gt 1], $x return $x`
	// Key 1: () for x=1 (empty least → first), else x; key 2 breaks ties.
	if got := run(t, src); got != "1 2 3 3" {
		t.Fatalf("got %q", got)
	}
	src = `for $x in (1, 2) order by ($x)[. gt 1] empty greatest return $x`
	if got := run(t, src); got != "2 1" {
		t.Fatalf("empty greatest: got %q", got)
	}
}

// TestFlatteningRationale reproduces the paper's "XQuery's Rationale for
// Sequences" examples: nested FLWORs produce one-dimensional lists, and a
// search returns the item itself, not a singleton list.
func TestFlatteningRationale(t *testing.T) {
	doc := `<r><n><k>1</k><k>2</k></n><n><k>3</k></n></r>`
	// FOR x in some-nodes RETURN children(x): one flat list.
	got := runCtx(t, `for $x in /r/n return $x/k`, doc)
	if got != "<k>1</k> <k>2</k> <k>3</k>" {
		t.Fatalf("flat children list: %q", got)
	}
	// Nested FORs: still one-dimensional.
	got = run(t, `for $a in (1,2) return for $b in (10,20) return $a * $b`)
	if got != "10 20 20 40" {
		t.Fatalf("nested FLWOR: %q", got)
	}
	// Search returns the item, not a singleton list: count is 1 and the
	// value is directly usable.
	got = run(t, `(for $a in (5,7,9) return $a[. gt 6])[1] + 1`)
	if got != "8" {
		t.Fatalf("search result directly usable: %q", got)
	}
}

func TestQuantifiedEval(t *testing.T) {
	doc := `<x><kids><foo/><foo/><bar/></kids><kids><bar/></kids></x>`
	// The paper's example shape: some kid has more foo than bar descendants.
	src := `some $y in /x/kids satisfies count($y//foo) gt count($y//bar)`
	if got := runCtx(t, src, doc); got != "true" {
		t.Fatal("some/satisfies")
	}
	if got := run(t, `every $x in (1,2,3) satisfies $x gt 0`); got != "true" {
		t.Fatal("every true")
	}
	if got := run(t, `every $x in (1,2,3) satisfies $x gt 1`); got != "false" {
		t.Fatal("every false")
	}
	if got := run(t, `some $x in () satisfies $x`); got != "false" {
		t.Fatal("some over empty")
	}
	if got := run(t, `every $x in () satisfies $x`); got != "true" {
		t.Fatal("every over empty")
	}
}

func TestIfTypeswitchEval(t *testing.T) {
	if got := run(t, `if (1 lt 2) then "yes" else "no"`); got != "yes" {
		t.Fatal("if")
	}
	if got := run(t, `if (()) then "yes" else "no"`); got != "no" {
		t.Fatal("if empty cond")
	}
	src := `typeswitch (<a/>) case xs:string return "s" case element(a) return "elem-a" default return "other"`
	if got := run(t, src); got != "elem-a" {
		t.Fatal("typeswitch element case")
	}
	src = `typeswitch ("x") case $s as xs:string return concat($s, "!") default return "other"`
	if got := run(t, src); got != "x!" {
		t.Fatal("typeswitch var binding")
	}
	src = `typeswitch (1.5) case xs:integer return "int" default $d return concat("other:", $d)`
	if got := run(t, src); got != "other:1.5" {
		t.Fatal("typeswitch default var")
	}
}

func TestUserFunctions(t *testing.T) {
	src := `
	declare function local:fact($n as xs:integer) as xs:integer {
		if ($n le 1) then 1 else $n * local:fact($n - 1)
	};
	local:fact(6)`
	if got := run(t, src); got != "720" {
		t.Fatalf("factorial: %q", got)
	}
	// The paper's style of utility function.
	src = `
	declare function local:without-leading-or-trailing-spaces($s) {
		normalize-space($s)
	};
	declare function local:child-element-named($parent, $name) {
		$parent/*[name(.) = $name]
	};
	let $doc := <p><a/><b id="1"/></p>
	return (local:without-leading-or-trailing-spaces("  x  y  "),
	        local:child-element-named($doc, "b")/@id)`
	if got := run(t, src); got != `x y id="1"` {
		t.Fatalf("utility functions: %q", got)
	}
	// Mutual recursion.
	src = `
	declare function local:even($n) { if ($n = 0) then true() else local:odd($n - 1) };
	declare function local:odd($n) { if ($n = 0) then false() else local:even($n - 1) };
	local:even(10)`
	if got := run(t, src); got != "true" {
		t.Fatal("mutual recursion")
	}
}

func TestUserFunctionTypeChecks(t *testing.T) {
	src := `
	declare function local:f($n as xs:integer) as xs:integer { $n };
	local:f("nope")`
	if _, err := runE(src); err == nil || !strings.Contains(err.Error(), "XPTY0004") {
		t.Fatalf("argument type check: %v", err)
	}
	src = `
	declare function local:g($n) as xs:integer { "str" };
	local:g(1)`
	if _, err := runE(src); err == nil || !strings.Contains(err.Error(), "XPTY0004") {
		t.Fatalf("return type check: %v", err)
	}
}

func TestRecursionLimit(t *testing.T) {
	src := `declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)`
	ip, err := Compile(src, Options{Limits: Limits{MaxDepth: 64}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ip.Eval(nil, nil)
	if err == nil || !strings.Contains(err.Error(), "LOPS0003") {
		t.Fatalf("want recursion limit error, got %v", err)
	}
}

func TestPrologVariables(t *testing.T) {
	src := `
	declare variable $base := 10;
	declare variable $twice := $base * 2;
	declare function local:plus-base($n) { $n + $base };
	local:plus-base($twice)`
	if got := run(t, src); got != "30" {
		t.Fatalf("prolog vars: %q", got)
	}
}

func TestExternalVariables(t *testing.T) {
	src := `declare variable $input external; $input * 2`
	ip, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ip.EvalString(nil, map[string]xdm.Sequence{"input": xdm.Singleton(xdm.Integer(21))})
	if err != nil || out != "42" {
		t.Fatalf("external var: %q, %v", out, err)
	}
	if _, err := ip.Eval(nil, nil); err == nil {
		t.Fatal("missing external var should error")
	}
}

func TestVariableNotFoundMessage(t *testing.T) {
	// Galax: "Internal_Error: Variable '$glx:dot' not found" with no line
	// number. We name the variable and give a position.
	_, err := runE("let $x := 1\nreturn $y")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "$y") || !strings.Contains(msg, "2:") {
		t.Fatalf("message should name $y with position: %q", msg)
	}
}

func TestConstructors(t *testing.T) {
	tests := []struct{ src, want string }{
		{`<a/>`, `<a/>`},
		{`<a x="1" y="2"/>`, `<a x="1" y="2"/>`},
		{`<a>{1+1}</a>`, `<a>2</a>`},
		{`<a>{1}{2}</a>`, `<a>12</a>`},       // separate enclosures: no space
		{`<a>{(1,2)}</a>`, `<a>1 2</a>`},     // one enclosure: space-joined
		{`<a b="x{1+1}y"/>`, `<a b="x2y"/>`}, // attribute value template
		{`<a b="{(1,2)}"/>`, `<a b="1 2"/>`}, // sequence in attribute
		{`<a><b>{"t"}</b></a>`, `<a><b>t</b></a>`},
		{`<a>{<b/>}</a>`, `<a><b/></a>`},
		{`element foo { "x" }`, `<foo>x</foo>`},
		{`element { concat("f","oo") } { }`, `<foo/>`},
		{`attribute troubles {1}`, `troubles="1"`},
		{`text { "hi" }`, `hi`},
		{`<a>{text {"hi"}}</a>`, `<a>hi</a>`},
		{`comment { "c" }`, `<!--c-->`},
		{`<a>{comment {"c"}}</a>`, `<a><!--c--></a>`},
		{`document { <r/> }`, `<r/>`},
		{`<a>{attribute q {"v"}}</a>`, `<a q="v"/>`},
		{`<el>{()}</el>`, `<el/>`},
		// Document content is element content (XQuery §3.7.3.3): adjacent
		// text merges and empty text vanishes, exactly as in an element.
		{`count(document{"a", text{"b"}}/text())`, `1`},
		{`count(element e{"a", text{"b"}}/text())`, `1`},
		{`count(document{""}/node())`, `0`},
		{`count(element e{""}/node())`, `0`},
		{`count(document{text{"a"},text{"b"}}/text())`, `1`},
		{`count(document{<a/>,"",<b/>}/node())`, `2`},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestConstructorCopiesNodes(t *testing.T) {
	// Element construction deep-copies content; mutating the original via
	// later queries cannot alias into the constructed tree.
	src := `let $b := <b><c/></b>
	        let $wrapped := <a>{$b}</a>
	        return ($wrapped/b/c is $b/c)`
	if got := run(t, src); got != "false" {
		t.Fatalf("copy semantics: %q", got)
	}
	src = `let $b := <b/> let $w := <a>{$b}</a> return ($b is $b)`
	if got := run(t, src); got != "true" {
		t.Fatal("node identity")
	}
}

func TestBoundaryWhitespace(t *testing.T) {
	// Default: strip boundary whitespace.
	if got := run(t, `<a> <b/> </a>`); got != `<a><b/></a>` {
		t.Fatalf("strip: %q", got)
	}
	// declare boundary-space preserve keeps it.
	src := `declare boundary-space preserve; <a> <b/> </a>`
	if got := run(t, src); got != `<a> <b/> </a>` {
		t.Fatalf("preserve: %q", got)
	}
	// Entity-protected whitespace survives stripping.
	if got := run(t, `<a>&#x20;<b/></a>`); got != `<a> <b/></a>` {
		t.Fatalf("protected: %q", got)
	}
	// Non-whitespace literal text is never stripped.
	if got := run(t, `<a> x </a>`); got != `<a> x </a>` {
		t.Fatalf("text kept: %q", got)
	}
}

func TestBuiltinFunctions(t *testing.T) {
	tests := []struct{ src, want string }{
		{`count((1,2,3))`, "3"},
		{`empty(())`, "true"},
		{`exists((1))`, "true"},
		{`distinct-values((1,2,1,3,2))`, "1 2 3"},
		{`distinct-values(("a","b","a"))`, "a b"},
		{`index-of((10,20,10), 10)`, "1 3"},
		{`insert-before((1,2,3), 2, (9))`, "1 9 2 3"},
		{`remove((1,2,3), 2)`, "1 3"},
		{`reverse((1,2,3))`, "3 2 1"},
		{`subsequence((1,2,3,4,5), 2, 3)`, "2 3 4"},
		{`subsequence((1,2,3), 2)`, "2 3"},
		{`sum((1,2,3))`, "6"},
		{`sum(())`, "0"},
		{`avg((1,2,3))`, "2"},
		{`max((1,5,3))`, "5"},
		{`min((4,2,8))`, "2"},
		{`max(("a","c","b"))`, "c"},
		{`abs(-4)`, "4"},
		{`floor(1.7)`, "1"},
		{`ceiling(1.2)`, "2"},
		{`round(2.5)`, "3"},
		{`round(-2.5)`, "-2"},
		{`number("12")`, "12"},
		{`string(12)`, "12"},
		{`concat("a","b","c")`, "abc"},
		{`string-join(("a","b"), "-")`, "a-b"},
		{`substring("hello", 2)`, "ello"},
		{`substring("hello", 2, 3)`, "ell"},
		{`string-length("hey")`, "3"},
		{`normalize-space("  a   b ")`, "a b"},
		{`upper-case("ab")`, "AB"},
		{`lower-case("AB")`, "ab"},
		{`translate("abcb", "b", "x")`, "axcx"},
		{`translate("abc", "bc", "x")`, "ax"},
		{`contains("hello", "ell")`, "true"},
		{`starts-with("hello", "he")`, "true"},
		{`ends-with("hello", "lo")`, "true"},
		{`substring-before("a/b", "/")`, "a"},
		{`substring-after("a/b", "/")`, "b"},
		{`substring-after("ab", "/")`, ""},
		{`compare("a","b")`, "-1"},
		{`matches("abc", "b.")`, "true"},
		{`replace("a1b2", "[0-9]", "_")`, "a_b_"},
		{`tokenize("a,b,,c", ",")`, "a b  c"},
		{`string-to-codepoints("AB")`, "65 66"},
		{`codepoints-to-string((72,105))`, "Hi"},
		{`not(())`, "true"},
		{`boolean((1))`, "true"},
		{`true()`, "true"},
		{`false()`, "false"},
		{`data(<a>5</a>) + 1`, "6"},
		{`deep-equal(<a x="1"><b/></a>, <a x="1"><b/></a>)`, "true"},
		{`zero-or-one(())`, ""},
		{`exactly-one((5))`, "5"},
		{`xs:integer("42") + 1`, "43"},
		{`xs:string(12)`, "12"},
		{`xs:boolean("true")`, "true"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestContextFunctions(t *testing.T) {
	doc := `<r><i>a</i><i>b</i><i>c</i></r>`
	tests := []struct{ src, want string }{
		{`/r/i[position() = 2]`, "<i>b</i>"},
		{`/r/i[last()]`, "<i>c</i>"},
		{`/r/i[position() lt 3]/text()`, "a b"},
		{`for $x in /r/i return string($x)`, "a b c"},
		{`/r/i/string-length()`, "1 1 1"},
		{`name(/r)`, "r"},
		{`local-name(/*)`, "r"},
		{`count(root(//i[1])//i)`, "3"},
	}
	for _, tt := range tests {
		if got := runCtx(t, tt.src, doc); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestErrorFunction(t *testing.T) {
	_, err := runE(`error("something went wrong")`)
	if err == nil || !strings.Contains(err.Error(), "something went wrong") {
		t.Fatalf("error(): %v", err)
	}
	_, err = runE(`error("MYCODE", "description")`)
	if err == nil || !strings.Contains(err.Error(), "MYCODE") || !strings.Contains(err.Error(), "description") {
		t.Fatalf("error/2: %v", err)
	}
	_, err = runE(`error()`)
	if err == nil {
		t.Fatal("error/0 should raise")
	}
	// error() in dead branches does not fire.
	got := run(t, `if (1 lt 2) then "ok" else error("unreachable")`)
	if got != "ok" {
		t.Fatal("lazy error branch")
	}
}

// TestTraceVariadic verifies the Galax-era trace: prints its arguments and
// returns the value of the LAST one, enabling the paper's idiom
// `let $x := trace("x=", something)`.
func TestTraceVariadic(t *testing.T) {
	var traced [][]string
	ip, err := Compile(`let $x := trace("x=", 5) return $x + 1`, Options{
		Tracer: obs.TraceFunc(func(values []string) { traced = append(traced, values) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ip.EvalString(nil, nil)
	if err != nil || out != "6" {
		t.Fatalf("trace returns last arg: %q, %v", out, err)
	}
	if len(traced) != 1 || traced[0][0] != "x=" || traced[0][1] != "5" {
		t.Fatalf("trace output: %v", traced)
	}
}

func TestDocFunction(t *testing.T) {
	ip, err := Compile(`count(doc("model.xml")//node)`, Options{
		DocResolver: func(uri string) (*xmltree.Node, error) {
			if uri != "model.xml" {
				return nil, fmt.Errorf("unknown %q", uri)
			}
			return xmltree.Parse(`<m><node/><node/></m>`)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ip.EvalString(nil, nil)
	if err != nil || out != "2" {
		t.Fatalf("doc(): %q, %v", out, err)
	}
	// Unknown document errors.
	ip2, _ := Compile(`doc("missing.xml")`, Options{
		DocResolver: func(string) (*xmltree.Node, error) { return nil, fmt.Errorf("nope") },
	})
	if _, err := ip2.Eval(nil, nil); err == nil {
		t.Fatal("missing doc should error")
	}
}

func TestTypeOperatorsEval(t *testing.T) {
	tests := []struct{ src, want string }{
		{`5 instance of xs:integer`, "true"},
		{`5 instance of xs:string`, "false"},
		{`(1,2) instance of xs:integer+`, "true"},
		{`() instance of xs:integer?`, "true"},
		{`<a/> instance of element(a)`, "true"},
		{`<a/> instance of element(b)`, "false"},
		{`"5" cast as xs:integer`, "5"},
		{`"x" castable as xs:integer`, "false"},
		{`"7" castable as xs:integer`, "true"},
		{`() castable as xs:integer?`, "true"},
		{`(1,2) treat as xs:integer+`, "1 2"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
	if _, err := runE(`"x" treat as xs:integer`); err == nil {
		t.Fatal("treat as failure should error")
	}
	if _, err := runE(`"x" cast as xs:integer`); err == nil {
		t.Fatal("bad cast should error")
	}
}

func TestNodeComparisons(t *testing.T) {
	doc := `<r><a/><b/></r>`
	tests := []struct{ src, want string }{
		{`/r/a is /r/a`, "true"},
		{`/r/a is /r/b`, "false"},
		{`/r/a << /r/b`, "true"},
		{`/r/b >> /r/a`, "true"},
		{`() is /r/a`, ""},
	}
	for _, tt := range tests {
		if got := runCtx(t, tt.src, doc); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []struct{ src, code string }{
		{`$nope`, "XPST0008"},
		{`unknown-func(1)`, "XPST0017"},
		{`.`, "XPDY0002"},
		{`position()`, "XPDY0002"},
		{`(1,2) + 1`, "XPTY0004"},
		{`1 div 0`, "FOAR0001"},
		{`("a","b")[. = "a"]/kid`, "XPTY0019"},
		{`(1, <a/>)[. instance of xs:integer or true()]`, ""}, // mixed in predicate ok
	}
	for _, c := range cases {
		_, err := runE(c.src)
		if c.code == "" {
			if err != nil {
				t.Errorf("%q should succeed, got %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.code) {
			t.Errorf("%q: want %s, got %v", c.src, c.code, err)
		}
	}
}

func TestEvalErrorPositions(t *testing.T) {
	_, err := runE("1 +\n\n$boom")
	if err == nil {
		t.Fatal("expected error")
	}
	ee, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ee.Pos.Line != 3 {
		t.Fatalf("line = %d, want 3", ee.Pos.Line)
	}
}

func TestPredicateSemantics(t *testing.T) {
	tests := []struct{ src, want string }{
		{`(10,20,30)[2]`, "20"},
		{`(10,20,30)[. gt 15]`, "20 30"},
		{`(10,20,30)[position() gt 1][1]`, "20"},
		{`("a","b","c")[4]`, ""},
		{`(1 to 10)[. mod 2 = 0][last()]`, "10"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestReverseAxisPositions(t *testing.T) {
	doc := `<a><b><c><d/></c></b></a>`
	// ancestor::*[1] is the nearest ancestor.
	if got := runCtx(t, `name((//d)[1]/ancestor::*[1])`, doc); got != "c" {
		t.Fatalf("nearest ancestor: %q", got)
	}
	if got := runCtx(t, `name((//d)[1]/ancestor::*[3])`, doc); got != "a" {
		t.Fatalf("third ancestor: %q", got)
	}
}

func TestStringsWithDashNames(t *testing.T) {
	// Element names with dashes parse and match (XML allows dashes; this is
	// why XQuery pays the $n-1 price, and the paper calls it worth it).
	doc := `<r><focus-is-type type="superuser"/></r>`
	if got := runCtx(t, `string(/r/focus-is-type/@type)`, doc); got != "superuser" {
		t.Fatalf("dashed names: %q", got)
	}
}
