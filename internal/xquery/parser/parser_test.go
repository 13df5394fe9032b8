package parser

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/lexer"
)

func mustExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestParseLiterals(t *testing.T) {
	if e := mustExpr(t, `42`); e.(*ast.IntLit).Value != 42 {
		t.Fatal("int literal")
	}
	if e := mustExpr(t, `3.25`); e.(*ast.DecimalLit).Value != 3.25 {
		t.Fatal("decimal literal")
	}
	if e := mustExpr(t, `1.5e2`); e.(*ast.DoubleLit).Value != 150 {
		t.Fatal("double literal")
	}
	if e := mustExpr(t, `"don""t"`); e.(*ast.StringLit).Value != `don"t` {
		t.Fatal("doubled-quote escape")
	}
	if e := mustExpr(t, `'it''s'`); e.(*ast.StringLit).Value != "it's" {
		t.Fatal("single-quote escape")
	}
	if e := mustExpr(t, `"a &lt; b"`); e.(*ast.StringLit).Value != "a < b" {
		t.Fatal("entity in string literal")
	}
	if _, ok := mustExpr(t, `()`).(*ast.EmptySeq); !ok {
		t.Fatal("empty sequence")
	}
	if _, ok := mustExpr(t, `.`).(*ast.ContextItem); !ok {
		t.Fatal("context item")
	}
}

// TestDashInVariableName is the paper's quirk #3: $n-1 is a variable with a
// three-letter name, not subtraction.
func TestDashInVariableName(t *testing.T) {
	e := mustExpr(t, `$n-1`)
	v, ok := e.(*ast.VarRef)
	if !ok || v.Name != "n-1" {
		t.Fatalf("$n-1 parsed as %T %+v, want VarRef{n-1}", e, e)
	}
	// With spacing it is subtraction.
	e = mustExpr(t, `$n - 1`)
	bin, ok := e.(*ast.Binary)
	if !ok || bin.Kind != ast.OpArith || bin.Arith != xdm.OpSub {
		t.Fatalf("$n - 1 parsed as %T, want subtraction", e)
	}
	// ($n)-1 is subtraction too.
	e = mustExpr(t, `($n)-1`)
	if bin, ok := e.(*ast.Binary); !ok || bin.Arith != xdm.OpSub {
		t.Fatalf("($n)-1 parsed as %T, want subtraction", e)
	}
}

// TestBareNameIsPath is quirk #1: x means "children named x", not a variable.
func TestBareNameIsPath(t *testing.T) {
	e := mustExpr(t, `x`)
	pe, ok := e.(*ast.PathExpr)
	if !ok || len(pe.Steps) != 1 || pe.Steps[0].Test.Name != "x" || pe.Steps[0].Axis != ast.AxisChild {
		t.Fatalf("bare name parsed as %T %+v", e, e)
	}
}

// TestSlashIsStep is quirk #2: / is a path step, not division; div divides.
func TestSlashIsStep(t *testing.T) {
	e := mustExpr(t, `a/b`)
	pe, ok := e.(*ast.PathExpr)
	if !ok || len(pe.Steps) != 2 {
		t.Fatalf("a/b parsed as %T", e)
	}
	e = mustExpr(t, `$a div $b`)
	bin, ok := e.(*ast.Binary)
	if !ok || bin.Arith != xdm.OpDiv {
		t.Fatalf("$a div $b parsed as %T", e)
	}
}

func TestPathForms(t *testing.T) {
	e := mustExpr(t, `/`)
	if pe := e.(*ast.PathExpr); pe.Root != ast.RootSlash || len(pe.Steps) != 0 {
		t.Fatal("lone slash")
	}
	e = mustExpr(t, `/a/b[1]/@c`)
	pe := e.(*ast.PathExpr)
	if pe.Root != ast.RootSlash || len(pe.Steps) != 3 {
		t.Fatalf("steps = %d", len(pe.Steps))
	}
	if pe.Steps[1].Test.Name != "b" || len(pe.Steps[1].Preds) != 1 {
		t.Fatal("predicate on b")
	}
	if pe.Steps[2].Axis != ast.AxisAttribute || pe.Steps[2].Test.Name != "c" {
		t.Fatal("@c step")
	}
	// // expansion.
	e = mustExpr(t, `$x//grandkid`)
	pe = e.(*ast.PathExpr)
	if len(pe.Steps) != 3 {
		t.Fatalf("$x//grandkid steps = %d, want 3 (var, desc-or-self, name)", len(pe.Steps))
	}
	if pe.Steps[1].Axis != ast.AxisDescendantOrSelf || pe.Steps[1].Test.Kind.Kind != xdm.TestAnyNode {
		t.Fatal("// expansion")
	}
	// Explicit axes.
	e = mustExpr(t, `parent::book`)
	pe = e.(*ast.PathExpr)
	if pe.Steps[0].Axis != ast.AxisParent || pe.Steps[0].Test.Name != "book" {
		t.Fatal("parent::book")
	}
	e = mustExpr(t, `ancestor-or-self::*`)
	pe = e.(*ast.PathExpr)
	if pe.Steps[0].Axis != ast.AxisAncestorOrSelf || pe.Steps[0].Test.Name != "*" {
		t.Fatal("ancestor-or-self::*")
	}
	// Kind tests.
	e = mustExpr(t, `text()`)
	pe = e.(*ast.PathExpr)
	if pe.Steps[0].Test.Kind.Kind != xdm.TestText {
		t.Fatal("text() kind test")
	}
	e = mustExpr(t, `child::element(foo)`)
	pe = e.(*ast.PathExpr)
	if pe.Steps[0].Test.Kind.Kind != xdm.TestElement || pe.Steps[0].Test.Kind.NodeName != "foo" {
		t.Fatal("element(foo) kind test")
	}
	// Parent abbreviation with predicate.
	e = mustExpr(t, `..[1]`)
	pe = e.(*ast.PathExpr)
	if pe.Steps[0].Axis != ast.AxisParent || len(pe.Steps[0].Preds) != 1 {
		t.Fatal(".. with predicate")
	}
}

func TestFilterStepSequenceIndex(t *testing.T) {
	// ($X,$Y,$Z)[2] — the paper's T1 expression form.
	e := mustExpr(t, `($X,$Y,$Z)[2]`)
	pe, ok := e.(*ast.PathExpr)
	if !ok || len(pe.Steps) != 1 {
		t.Fatalf("parsed as %T", e)
	}
	st := pe.Steps[0]
	if st.Primary == nil || len(st.Preds) != 1 {
		t.Fatal("filter step with predicate")
	}
	if _, ok := st.Primary.(*ast.SequenceExpr); !ok {
		t.Fatal("primary should be sequence expr")
	}
}

func TestGeneralVsValueComparison(t *testing.T) {
	e := mustExpr(t, `1 = (1,2,3)`)
	bin := e.(*ast.Binary)
	if bin.Kind != ast.OpGeneralComp || bin.Cmp != xdm.OpEq {
		t.Fatal("general =")
	}
	e = mustExpr(t, `1 eq 2`)
	bin = e.(*ast.Binary)
	if bin.Kind != ast.OpValueComp || bin.Cmp != xdm.OpEq {
		t.Fatal("value eq")
	}
	e = mustExpr(t, `$a is $b`)
	if e.(*ast.Binary).Kind != ast.OpNodeIs {
		t.Fatal("is")
	}
	e = mustExpr(t, `$a << $b`)
	if e.(*ast.Binary).Kind != ast.OpNodeBefore {
		t.Fatal("<<")
	}
	e = mustExpr(t, `count($y//foo) gt count($y//bar)`)
	if e.(*ast.Binary).Cmp != xdm.OpGt {
		t.Fatal("gt between counts")
	}
}

func TestPrecedence(t *testing.T) {
	// or < and: "a or b and c" is a or (b and c)
	e := mustExpr(t, `$a or $b and $c`)
	or := e.(*ast.Binary)
	if or.Kind != ast.OpOr {
		t.Fatal("top should be or")
	}
	if or.R.(*ast.Binary).Kind != ast.OpAnd {
		t.Fatal("rhs should be and")
	}
	// additive < multiplicative: 1+2*3 is 1+(2*3)
	e = mustExpr(t, `1 + 2 * 3`)
	add := e.(*ast.Binary)
	if add.Arith != xdm.OpAdd || add.R.(*ast.Binary).Arith != xdm.OpMul {
		t.Fatal("arith precedence")
	}
	// comparison < range: "1 to 3 = 2" compares the range.
	e = mustExpr(t, `1 to 3 = 2`)
	cmp := e.(*ast.Binary)
	if cmp.Kind != ast.OpGeneralComp {
		t.Fatal("top should be comparison")
	}
	if _, ok := cmp.L.(*ast.RangeExpr); !ok {
		t.Fatal("lhs should be range")
	}
	// union binds tighter than *: $a * $b union $c is $a * ($b union $c)
	e = mustExpr(t, `$a * $b union $c`)
	mul := e.(*ast.Binary)
	if mul.Arith != xdm.OpMul || mul.R.(*ast.Binary).Kind != ast.OpUnion {
		t.Fatal("union precedence")
	}
	// unary minus: -$x + 1 is (-$x) + 1
	e = mustExpr(t, `-$x + 1`)
	if e.(*ast.Binary).Arith != xdm.OpAdd {
		t.Fatal("unary binds tighter than +")
	}
	// One row per adjacent pair of levels in the operator table, loosest
	// pair first; the operand under them all is a unary path.
	for _, c := range []struct{ src, want string }{
		{`1 = 2 or 3 = 4 and 5 = 6`, `(or (gc:= 1 2) (and (gc:= 3 4) (gc:= 5 6)))`},
		{`$x instance of xs:integer and true()`, `(and (instance-of $x xs:integer) (call true))`},
		{`1 eq 2 to 3`, `(vc:eq 1 (to 2 3))`},
		{`1 to 2 + 3`, `(to 1 (+ 2 3))`},
		{`1 + 2 * 3`, `(+ 1 (* 2 3))`},
		{`$a * $b union $c`, `(* $a (union $b $c))`},
		{`$a | $b intersect $c`, `(union $a (intersect $b $c))`},
		{`$a intersect $b instance of node()`, `(intersect $a (instance-of $b node()))`},
		{`$x treat as item() instance of node()`, `(instance-of (treat $x item()) node())`},
		{`1 castable as xs:integer treat as item()`, `(treat (castable 1 xs:integer) item())`},
		{`1 cast as xs:integer castable as xs:string`, `(castable (cast 1 xs:integer) xs:string)`},
		{`- 1 cast as xs:string`, `(cast (-u 1) xs:string)`},
		{`a/div div div/a`, `(div (path (child::a) (child::div)) (path (child::div) (child::a)))`},
	} {
		if got := ast.Print(mustExpr(t, c.src)); got != c.want {
			t.Errorf("%s parsed as %s, want %s", c.src, got, c.want)
		}
	}
}

func TestFLWOR(t *testing.T) {
	src := `for $x at $i in (1,2,3), $y in (4,5)
	        let $z := $x + $y
	        where $z gt 5
	        order by $z descending empty greatest, $x
	        return ($x, $y)`
	e := mustExpr(t, src)
	fl, ok := e.(*ast.FLWOR)
	if !ok {
		t.Fatalf("parsed as %T", e)
	}
	if len(fl.Clauses) != 3 {
		t.Fatalf("clauses = %d", len(fl.Clauses))
	}
	fc := fl.Clauses[0].(ast.ForClause)
	if fc.Var != "x" || fc.PosVar != "i" {
		t.Fatal("for clause 0")
	}
	if fl.Clauses[1].(ast.ForClause).Var != "y" {
		t.Fatal("for clause 1")
	}
	if fl.Clauses[2].(ast.LetClause).Var != "z" {
		t.Fatal("let clause")
	}
	if fl.Where == nil {
		t.Fatal("where")
	}
	if len(fl.OrderBy) != 2 || !fl.OrderBy[0].Descending || fl.OrderBy[0].EmptyLeast {
		t.Fatal("order by")
	}
	if !fl.OrderBy[1].EmptyLeast {
		t.Fatal("default empty least")
	}
}

func TestQuantified(t *testing.T) {
	e := mustExpr(t, `some $y in $x/kids satisfies count($y//foo) gt count($y//bar)`)
	q := e.(*ast.Quantified)
	if q.Every || len(q.Vars) != 1 || q.Vars[0].Var != "y" {
		t.Fatal("some")
	}
	e = mustExpr(t, `every $a in (1,2), $b in (3,4) satisfies $a lt $b`)
	q = e.(*ast.Quantified)
	if !q.Every || len(q.Vars) != 2 {
		t.Fatal("every with two vars")
	}
}

func TestIfAndTypeswitch(t *testing.T) {
	e := mustExpr(t, `if ($x) then 1 else 2`)
	ife := e.(*ast.IfExpr)
	if ife.Cond == nil || ife.Then == nil || ife.Else == nil {
		t.Fatal("if")
	}
	e = mustExpr(t, `typeswitch ($x) case $s as xs:string return 1 case element(a) return 2 default $d return 3`)
	ts := e.(*ast.Typeswitch)
	if len(ts.Cases) != 2 {
		t.Fatal("typeswitch cases")
	}
	if ts.Cases[0].Var != "s" || ts.Cases[0].Type.Type.Name != "xs:string" {
		t.Fatal("case 0")
	}
	if ts.Cases[1].Type.Kind != xdm.TestElement || ts.Cases[1].Type.NodeName != "a" {
		t.Fatal("case 1")
	}
	if ts.DefaultVar != "d" {
		t.Fatal("default var")
	}
}

func TestTypeOperators(t *testing.T) {
	e := mustExpr(t, `$x instance of xs:string?`)
	io := e.(*ast.InstanceOf)
	if io.Type.Type.Name != "xs:string" || io.Type.Occurrence != xdm.Optional {
		t.Fatal("instance of")
	}
	e = mustExpr(t, `$x cast as xs:integer`)
	if e.(*ast.CastAs).TypeName != "xs:integer" {
		t.Fatal("cast as")
	}
	e = mustExpr(t, `$x castable as xs:double?`)
	ca := e.(*ast.CastableAs)
	if ca.TypeName != "xs:double" || !ca.Optional {
		t.Fatal("castable as")
	}
	e = mustExpr(t, `$x treat as node()*`)
	ta := e.(*ast.TreatAs)
	if ta.Type.Kind != xdm.TestAnyNode || ta.Type.Occurrence != xdm.ZeroOrMore {
		t.Fatal("treat as")
	}
}

func TestFunctionCalls(t *testing.T) {
	e := mustExpr(t, `concat("a", "b", $c)`)
	call := e.(*ast.FunctionCall)
	if call.Name != "concat" || len(call.Args) != 3 {
		t.Fatal("concat call")
	}
	e = mustExpr(t, `local:my-func()`)
	call = e.(*ast.FunctionCall)
	if call.Name != "local:my-func" || len(call.Args) != 0 {
		t.Fatal("prefixed call with dash in name")
	}
	// Reserved names are not function calls.
	if _, err := ParseExpr(`if(1)`); err == nil {
		t.Fatal("if() should not parse as a call")
	}
}

func TestDirectConstructors(t *testing.T) {
	e := mustExpr(t, `<el troubles="1"/>`)
	de := e.(*ast.DirElem)
	if de.Name != "el" || len(de.Attrs) != 1 || de.Attrs[0].Name != "troubles" {
		t.Fatal("simple constructor")
	}
	lit := de.Attrs[0].Parts[0].(*ast.StringLit)
	if lit.Value != "1" {
		t.Fatal("attr literal")
	}

	e = mustExpr(t, `<el> {$x} </el>`)
	de = e.(*ast.DirElem)
	// Content: ws literal, enclosed var, ws literal.
	if len(de.Content) != 3 {
		t.Fatalf("content items = %d, want 3", len(de.Content))
	}
	if !de.LiteralText[0] || de.LiteralText[1] || !de.LiteralText[2] {
		t.Fatal("literal-text flags")
	}
	if v, ok := de.Content[1].(*ast.VarRef); !ok || v.Name != "x" {
		t.Fatal("enclosed var")
	}

	// Nested elements and mixed content.
	e = mustExpr(t, `<a x="p{$q}r">text<b/>{1+2}</a>`)
	de = e.(*ast.DirElem)
	if len(de.Attrs[0].Parts) != 3 {
		t.Fatal("attr value parts")
	}
	if len(de.Content) != 3 {
		t.Fatalf("content = %d", len(de.Content))
	}
	if de.Content[0].(*ast.StringLit).Value != "text" {
		t.Fatal("text run")
	}
	if de.Content[1].(*ast.DirElem).Name != "b" {
		t.Fatal("nested element")
	}
	if _, ok := de.Content[2].(*ast.Binary); !ok {
		t.Fatal("enclosed arithmetic")
	}

	// Brace escapes.
	e = mustExpr(t, `<a>{{literal}}</a>`)
	de = e.(*ast.DirElem)
	if de.Content[0].(*ast.StringLit).Value != "{literal}" {
		t.Fatal("brace escapes")
	}

	// Entities in content are protected from boundary stripping.
	e = mustExpr(t, `<a>&#x20;</a>`)
	de = e.(*ast.DirElem)
	if de.Content[0].(*ast.StringLit).Value != " " || de.LiteralText[0] {
		t.Fatal("entity content should be protected")
	}

	// CDATA.
	e = mustExpr(t, `<a><![CDATA[<raw>&]]></a>`)
	de = e.(*ast.DirElem)
	if de.Content[0].(*ast.StringLit).Value != "<raw>&" {
		t.Fatal("CDATA")
	}

	// Comment and PI constructors.
	e = mustExpr(t, `<!-- note -->`)
	if e.(*ast.DirComment).Data != " note " {
		t.Fatal("comment constructor")
	}
	e = mustExpr(t, `<?target some data?>`)
	pi := e.(*ast.DirPI)
	if pi.Target != "target" || pi.Data != "some data" {
		t.Fatal("PI constructor")
	}
}

func TestComputedConstructors(t *testing.T) {
	e := mustExpr(t, `element foo { "x" }`)
	ce := e.(*ast.CompElem)
	if ce.Name != "foo" || ce.Content == nil {
		t.Fatal("computed element, static name")
	}
	e = mustExpr(t, `element { concat("a","b") } { 1 }`)
	ce = e.(*ast.CompElem)
	if ce.Name != "" || ce.NameExpr == nil {
		t.Fatal("computed element, dynamic name")
	}
	e = mustExpr(t, `attribute troubles {1}`)
	ca := e.(*ast.CompAttr)
	if ca.Name != "troubles" {
		t.Fatal("computed attribute")
	}
	e = mustExpr(t, `text { "hi" }`)
	if e.(*ast.CompText).Content == nil {
		t.Fatal("computed text")
	}
	e = mustExpr(t, `comment { "c" }`)
	if e.(*ast.CompComment).Content == nil {
		t.Fatal("computed comment")
	}
	e = mustExpr(t, `document { <a/> }`)
	if e.(*ast.CompDoc).Content == nil {
		t.Fatal("computed document")
	}
	e = mustExpr(t, `element empty-content {}`)
	if e.(*ast.CompElem).Content != nil {
		t.Fatal("empty content should be nil")
	}
	// element/attribute as kind tests still work.
	e = mustExpr(t, `$x/element(foo)`)
	pe := e.(*ast.PathExpr)
	if pe.Steps[1].Test.Kind.Kind != xdm.TestElement {
		t.Fatal("element(foo) after slash should be kind test")
	}
}

func TestProlog(t *testing.T) {
	src := `
	declare namespace my = "http://example.com/my";
	declare boundary-space preserve;
	declare variable $greeting := "hello";
	declare function my:twice($x as xs:integer) as xs:integer {
		$x * 2
	};
	my:twice(21)`
	mod, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Namespaces["my"] != "http://example.com/my" {
		t.Fatal("namespace decl")
	}
	if !mod.BoundarySpacePreserve {
		t.Fatal("boundary-space")
	}
	if len(mod.Vars) != 1 || mod.Vars[0].Name != "greeting" {
		t.Fatal("variable decl")
	}
	if len(mod.Functions) != 1 {
		t.Fatal("function decl")
	}
	f := mod.Functions[0]
	if f.Name != "my:twice" || len(f.Params) != 1 || f.Params[0].Name != "x" {
		t.Fatal("function signature")
	}
	if f.Params[0].Type.Type.Name != "xs:integer" || f.Ret.Type.Name != "xs:integer" {
		t.Fatal("function types")
	}
	call, ok := mod.Body.(*ast.FunctionCall)
	if !ok || call.Name != "my:twice" {
		t.Fatal("body")
	}
}

func TestPrologLegacyForms(t *testing.T) {
	// 2004-draft spellings: define function, declare variable $x { expr }.
	src := `
	define function local:f($a) { $a }
	declare variable $v { 10 };
	local:f($v)`
	mod, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Functions) != 1 || mod.Functions[0].Name != "local:f" {
		t.Fatal("define function")
	}
	if len(mod.Vars) != 1 || mod.Vars[0].Val == nil {
		t.Fatal("brace variable decl")
	}
}

func TestCommentsAndNesting(t *testing.T) {
	e := mustExpr(t, `1 (: outer (: inner :) still outer :) + 2`)
	if e.(*ast.Binary).Arith != xdm.OpAdd {
		t.Fatal("nested comments")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unterminated string", `"abc`, "unterminated string"},
		{"unterminated comment", `1 (: oops`, "unterminated comment"},
		{"bad var", `$ x`, "variable name"},
		{"missing return", `for $x in (1) $x`, "expected \"return\""},
		{"missing satisfies", `some $x in (1) $x`, "expected \"satisfies\""},
		{"if missing else", `if (1) then 2`, "expected \"else\""},
		{"mismatched tag", `<a></b>`, "does not match"},
		{"attr lt", `<a x="<"/>`, "'<' in attribute value"},
		{"unescaped brace", `<a>}</a>`, "unescaped '}'"},
		{"trailing junk", `1 2`, "unexpected"},
		{"num then name", `1foo`, "immediately followed by a name"},
		{"empty flwor", `where 1 return 2`, ""},
		{"typeswitch no case", `typeswitch (1) default return 2`, "at least one case"},
		{"pi needs name", `processing-instruction { "x" } { "y" }`, "static target"},
		{"dup constructor attr", `<a x="1" x="2"/>`, "duplicate attribute"},
		// The non-associative levels take one operator; the second is left
		// for the caller, which has no use for it.
		{"nonassoc general comparison", `1 = 2 = 3`, "xquery: 1:7: unexpected '=' after end of expression"},
		{"nonassoc value comparison", `1 eq 2 eq 3`, "xquery: 1:8: unexpected name after end of expression"},
		{"nonassoc node comparison", `$x is $y is $z`, "xquery: 1:10: unexpected name after end of expression"},
		{"nonassoc node order", `$a << $b >> $c`, "xquery: 1:10: unexpected '>>' after end of expression"},
		{"nonassoc range", `1 to 2 to 3`, "xquery: 1:8: unexpected name after end of expression"},
		{"nonassoc instance of", `1 instance of xs:integer instance of xs:boolean`, "xquery: 1:26: unexpected name after end of expression"},
		{"nonassoc treat", `1 treat as item() treat as item()`, "xquery: 1:19: unexpected name after end of expression"},
		{"nonassoc castable", `1 castable as xs:integer castable as xs:string`, "xquery: 1:26: unexpected name after end of expression"},
		{"nonassoc cast", `1 cast as xs:integer cast as xs:string`, "xquery: 1:22: unexpected name after end of expression"},
		{"type operators loosest last", `1 instance of xs:integer treat as item()`, "xquery: 1:26: unexpected name after end of expression"},
		{"nonassoc in parentheses", `(1 = 2 = 3)`, `xquery: 1:8: expected ')', found '=' "="`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseExpr(c.src)
			if err == nil {
				t.Fatalf("ParseExpr(%q) succeeded", c.src)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want containing %q", err, c.want)
			}
		})
	}
}

// TestErrorsCarryPositions: unlike Galax's positionless "Variable '$glx:dot'
// not found", every diagnostic from this engine has a line number.
func TestErrorsCarryPositions(t *testing.T) {
	_, err := ParseExpr("1 +\n  @@@")
	if err == nil {
		t.Fatal("expected error")
	}
	le, ok := err.(*lexer.Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if le.Pos.Line != 2 {
		t.Fatalf("line = %d, want 2", le.Pos.Line)
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("formatted error should contain position: %v", err)
	}
}

func TestWildcardNames(t *testing.T) {
	e := mustExpr(t, `pre:*`)
	pe := e.(*ast.PathExpr)
	if pe.Steps[0].Test.Name != "pre:*" {
		t.Fatal("pre:* wildcard")
	}
	e = mustExpr(t, `*:local`)
	pe = e.(*ast.PathExpr)
	if pe.Steps[0].Test.Name != "*:local" {
		t.Fatal("*:local wildcard")
	}
}

func TestOrderedUnordered(t *testing.T) {
	e := mustExpr(t, `ordered { 1, 2 }`)
	if _, ok := e.(*ast.SequenceExpr); !ok {
		t.Fatalf("ordered should pass through, got %T", e)
	}
	e = mustExpr(t, `unordered { $x }`)
	if _, ok := e.(*ast.VarRef); !ok {
		t.Fatal("unordered should pass through")
	}
}

// TestParseErrorBreadth sweeps the grammar's error branches: every source
// here must be rejected (with a position, never a panic).
func TestParseErrorBreadth(t *testing.T) {
	cases := []string{
		// Prolog errors.
		`declare namespace = "u"; 1`,
		`declare namespace p "u"; 1`,
		`declare namespace p = u; 1`,
		`declare default namespace "u"; 1`,
		`declare default element space "u"; 1`,
		`declare default element namespace u; 1`,
		`declare boundary-space sometimes; 1`,
		`declare option 1 "v"; 1`,
		`declare option my:opt v; 1`,
		`declare function () { 1 }; 1`,
		`declare function local:f(x) { 1 }; 1`,
		`declare function local:f($x as) { 1 }; 1`,
		`declare function local:f($x $y) { 1 }; 1`,
		`declare function local:f() as { 1 }; 1`,
		`declare function local:f() 1; 1`,
		`declare function local:f() { }; 1`,
		`declare function local:f() { 1 ; 1`,
		`declare variable x := 1; 1`,
		`declare variable $x as := 1; 1`,
		`declare variable $x = 1; 1`,
		`declare variable $x { 1; 1`,
		// FLWOR errors.
		`for x in (1) return 1`,
		`for $x at i in (1) return 1`,
		`for $x (1) return 1`,
		`let $x = 1 return 1`,
		`for $x in (1) order by return 1`,
		`for $x in (1) order by $x empty middling return 1`,
		// Quantified/typeswitch errors.
		`some x in (1) satisfies 1`,
		`typeswitch (1) case return 1 default return 2`,
		`typeswitch (1) case $v xs:string return 1 default return 2`,
		`typeswitch (1) case xs:int return 1 default 2`,
		// Type-operator errors.
		`1 instance of`,
		`1 cast as`,
		`1 castable as 2`,
		`1 treat as`,
		// Path and step errors.
		`child::`,
		`self:: (1)`,
		`1/`,
		`//`,
		`a[`,
		`a[1`,
		`processing-instruction(`,
		`element(a,`,
		// Call and constructor errors.
		`f(1`,
		`f(1,`,
		`f(1 2)`,
		`element { 1 } 2`,
		`element foo 1`,
		`attribute { "a" } { 1`,
		`text 1`,
		`<a`,
		`<a x`,
		`<a x=`,
		`<a x=">`,
		`<a><!-- unterminated</a>`,
		`<a><![CDATA[x</a>`,
		`<a><?pi</a>`,
		`<a>{1</a>`,
		`<a>&bogus;</a>`,
		`<a>&#xZZ;</a>`,
		// Enclosed-expression and brace errors.
		`}`,
		`{ 1 }`,
		// Sequence-type errors.
		`1 instance of 2`,
		`declare function local:f($x as element(1)) { $x }; 1`,
	}
	for _, src := range cases {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) unexpectedly succeeded", src)
		}
	}
}

// TestParseAcceptanceBreadth sweeps accepting corners that the main tests
// do not reach.
func TestParseAcceptanceBreadth(t *testing.T) {
	cases := []string{
		`declare default element namespace "http://e"; 1`,
		`declare default function namespace "http://f"; 1`,
		`declare option my:opt "v"; 1`,
		`declare variable $x as xs:integer := 1; $x`,
		`for $x as xs:integer in (1,2) return $x`,
		`let $x as xs:integer* := (1,2) return $x`,
		`processing-instruction()`,
		`processing-instruction(target)`,
		`a/processing-instruction("quoted")`,
		`document-node()`,
		`//comment()`,
		`@*`,
		`attribute::*`,
		`element(*)`,
		`1 instance of empty()`,
		`() instance of empty-sequence()`,
		`for $x in (1) stable order by $x return $x`,
		`unordered { 1 }`,
		`<a xml:lang="en"/>`,
		`<pre:name pre:attr="1"/>`,
		`element(name, type-name-ignored)`,
	}
	for _, src := range cases {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
		}
	}
}

// TestDuplicateAttrCarriesXQST0040: literal duplicate attributes are the
// spec's static error XQST0040, distinct from both the generic syntax code
// XPST0003 and the runtime duplicate-policy code XQDY0025 that computed
// constructors raise under DupAttrError. The code rides on the lexer error
// so cliutil and xq.ErrorCode agree.
func TestDuplicateAttrCarriesXQST0040(t *testing.T) {
	_, err := ParseExpr(`<a x="1" x="2"/>`)
	if err == nil {
		t.Fatal("duplicate literal attribute must not parse")
	}
	le, ok := err.(*lexer.Error)
	if !ok {
		t.Fatalf("error type = %T, want *lexer.Error", err)
	}
	if le.Code != "XQST0040" {
		t.Fatalf("code = %q, want XQST0040", le.Code)
	}
	// Plain syntax errors stay uncoded (reported as XPST0003 downstream).
	_, err = ParseExpr(`1 +`)
	if err == nil {
		t.Fatal("want syntax error")
	}
	if le, ok := err.(*lexer.Error); ok && le.Code != "" {
		t.Fatalf("generic syntax error must be uncoded, got %q", le.Code)
	}
}

// dirConstructorList is `(<a/>,<a/>,…,1)` with n constructors, each one
// reached from token mode.
func dirConstructorList(n int) string {
	return "(" + strings.Repeat("<a/>,", n) + "1)"
}

// TestParseLinearInDirectConstructors: entering raw mode rewinds to the '<'
// in constant time, so compile time is linear in source size. (The rewind
// used to rescan from byte 0 to recover line and column, which made a 1 MB
// request body — what xqd admits — hold its admission slot for minutes.)
func TestParseLinearInDirectConstructors(t *testing.T) {
	parse := func(n int) time.Duration {
		src := dirConstructorList(n)
		// A collection left over from building src, or from the run
		// before, would land inside the 4 000-constructor case, which is
		// short enough (about 1.6 ms) to be the ratio's denominator.
		runtime.GC()
		start := time.Now()
		mod, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(mod.Body.(*ast.SequenceExpr).Items); got != n+1 {
			t.Fatalf("%d items, want %d", got, n+1)
		}
		return time.Since(start)
	}
	if d := parse(1 << 20 / len("<a/>,")); d > 5*time.Second {
		t.Errorf("a 1 MB program took %v to parse", d)
	}
	// Best of five on each side, so a scheduling hiccup cannot fake a slope.
	small, large := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		small, large = min(small, parse(4000)), min(large, parse(32000))
	}
	if large > 20*small {
		t.Errorf("32000 constructors took %v, 4000 took %v: more than 20x for 8x the input", large, small)
	}
}
