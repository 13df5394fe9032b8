package shapes_test

import (
	"strings"
	"testing"

	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/parser"
	"lopsided/internal/xquery/shapes"

	"lopsided/internal/xdm"
)

// inferBody parses a module (no optimization, so the AST is predictable)
// and returns the inferred info plus the body's shape.
func inferBody(t *testing.T, src string) (shapes.Shape, *shapes.Info, *ast.Module) {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	info := shapes.InferModule(mod)
	sh, ok := info.Of(mod.Body)
	if !ok {
		t.Fatalf("no shape recorded for body of %q", src)
	}
	return sh, info, mod
}

func TestInferShapes(t *testing.T) {
	cases := []struct {
		src  string
		want string // Shape.String()
	}{
		{`42`, "{1 int nf tot}"},
		{`"a"`, "{1 str nf tot}"},
		{`1.5`, "{1 dec nf tot}"},
		{`1e0`, "{1 dbl nf tot}"},
		{`()`, "{0 () tot}"},
		{`(1, 2)`, "{+ int nf tot}"},
		{`(1, "a")`, "{+ int|str nf tot}"},
		{`1 + 2`, "{1 int nf tot}"},
		{`1 - 2.5`, "{1 dec nf tot}"},
		{`1 div 2`, "{1 dec nf}"},       // FOAR0001 possible
		{`1 div 2e0`, "{1 dbl nf tot}"}, // double path cannot raise
		{`1 idiv 2`, "{1 int nf}"},
		{`1 eq 2`, "{1 bool nf tot}"},
		{`"a" eq "b"`, "{1 bool nf tot}"},
		{`(1,2) = (3,4)`, "{1 bool nf tot}"},
		{`1 = "a" cast as xs:integer`, "{1 bool nf}"},
		{`if (1) then 2 else "x"`, "{1 int|str nf tot}"},
		{`if (1) then 2 else 3`, "{1 int nf tot}"},
		{`1 to 3`, "{+ int nf tot}"},
		{`3 to 1`, "{0 () tot}"},
		{`5 to 5`, "{1 int nf tot}"},
		{`for $x in (1,2,3) return $x + 1`, "{+ int nf tot}"},
		{`for $x in (1,2,3) where $x gt 1 return $x`, "{* int nf tot}"},
		{`let $x := 5 return $x * 2`, "{1 int nf tot}"},
		{`some $x in (1,2) satisfies $x eq 1`, "{1 bool nf tot}"},
		{`count(//a)`, "{1 int nf}"},
		{`concat("a", "b")`, "{1 str nf tot}"},
		{`string-length("abc")`, "{1 int nf tot}"},
		{`//item`, "{* node}"},
		{`exists(//a)`, "{1 bool nf}"}, // argument may raise (no focus)
		{`"x" cast as xs:string`, "{1 str nf tot}"},
		{`"x" cast as xs:integer`, "{1 int nf}"},
		{`3 cast as xs:integer`, "{1 int nf tot}"},
		{`"x" castable as xs:integer`, "{1 bool nf tot}"},
		{`5 instance of xs:integer`, "{1 bool nf tot}"},
		{`<a>{1}</a>`, "{1 node tot}"},
		{`<a>{//b}</a>`, "{1 node}"}, // content may hold attribute nodes
		{`(1,2,3)[2]`, "{* int nf}"},
		{`trace(1, "lbl")`, "{1 str nf tot}"}, // returns the LAST argument
		{`reverse((1,2))`, "{+ int nf tot}"},
		{`zero-or-one(5)`, "{1 int nf tot}"},
		{`data(<a>x</a>)`, "{1 untyped nf tot}"},
		// Flow rows: the result is made of the sequence arguments' items,
		// whatever they are — not "nodes only", as a signature that could
		// not say "items of argument 0" once had it.
		{`remove((1,2), 1)`, "{* int nf}"}, // may drop one; the position cast can raise
		{`remove(//a, 1)`, "{* node}"},
		{`insert-before((1,2), 1, "x")`, "{+ int|str nf}"},
		{`insert-before((), 1, //a)`, "{* node}"},
		{`subsequence(("a","b"), 2)`, "{* str nf tot}"},
		{`one-or-more((1,2))`, "{+ int nf tot}"},
		{`exactly-one((1,2))`, "{1 int nf}"}, // FORG0005: the count does not fit
		{`trace("lbl", (1,2))`, "{+ int nf tot}"},
		{`sum("a")`, "{1 numeric nf}"}, // raises XPTY0004; never a string
		{`round(1.5)`, "{? numeric nf tot}"},
	}
	for _, c := range cases {
		sh, _, _ := inferBody(t, c.src)
		if got := sh.String(); got != c.want {
			t.Errorf("%s: inferred %s, want %s", c.src, got, c.want)
		}
	}
}

func TestInferUserFunctions(t *testing.T) {
	sh, _, _ := inferBody(t,
		`declare function local:f($x as xs:integer) as xs:integer { $x + 1 }; local:f(3)`)
	// The runtime enforces the declared return type, so the call is bounded
	// by it — but the body could raise, so never total.
	if got := sh.String(); got != "{1 int nf}" {
		t.Errorf("user call shape = %s", got)
	}
	// Undeclared return type: item()*.
	sh2, _, _ := inferBody(t, `declare function local:g() { 1 }; local:g()`)
	if sh2.Total || sh2.Occ != xdm.ZeroOrMore {
		t.Errorf("undeclared-return call shape = %s", sh2)
	}
}

func TestInferDiags(t *testing.T) {
	diagCases := []struct {
		src  string
		code string
	}{
		{`"a" + 1`, "XPTY0004"},
		{`1 + "a"`, "XPTY0004"},
		{`-"x"`, "XPTY0004"},
		{`"a" eq 1`, "XPTY0004"},
		{`("a","b") = (1,2)`, "XPTY0004"},
		{`() cast as xs:integer`, "XPTY0004"},
		{`1 + true()`, "XPTY0004"},
	}
	for _, c := range diagCases {
		_, info, _ := inferBody(t, c.src)
		d := info.FirstDiag()
		if d == nil {
			t.Errorf("%s: expected a %s diagnostic, got none", c.src, c.code)
			continue
		}
		if d.Code != c.code {
			t.Errorf("%s: diag code = %s, want %s", c.src, d.Code, c.code)
		}
		if d.P.Line == 0 {
			t.Errorf("%s: diagnostic lost its source span", c.src)
		}
	}
}

func TestInferNoDiagWhenUnsure(t *testing.T) {
	// Positions where the error is NOT inevitable, or where an earlier
	// must-eval expression might raise first, must stay silent.
	silent := []string{
		`if (//x) then "a" + 1 else 0`,              // branch: conditional
		`(1 div 0, "a" + 1)`,                        // earlier item may raise first
		`let $x := "a" return $x + 1`,               // FLWOR return is conditional
		`for $x in //a return "b" + 1`,              // return conditional on items
		`try { "a" + 1 } catch { 0 }`,               // caught at runtime
		`declare variable $g := 1 div 0; "a" + 1`,   // global evaluates first
		`declare function local:f() { "a" + 1 }; 1`, // function body never must
		`(//x)[1] + ()`,                             // empty operand: () result, no raise
		`"a" + //x`,                                 // node operand may atomize to untyped
		`1 + "2.5" cast as xs:untypedAtomic`,        // untyped arithmetic is NaN, not an error
		`("a", "b")[1] = 1`,                         // predicate drops the lower bound
	}
	for _, src := range silent {
		_, info, _ := inferBody(t, src)
		if d := info.FirstDiag(); d != nil {
			t.Errorf("%s: unexpected diagnostic %s %q", src, d.Code, d.Msg)
		}
	}
}

func TestInferXPST0005Warning(t *testing.T) {
	_, info, _ := inferBody(t, `/a/@id/b`)
	found := false
	for _, w := range info.Warnings {
		if w.Code == "XPST0005" && strings.Contains(w.Msg, "statically empty") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected XPST0005 warning, got %v", info.Warnings)
	}
	sh, _, _ := inferBody(t, `/a/@id/b`)
	if sh.Occ != xdm.Zero {
		t.Errorf("statically empty path shape = %s", sh)
	}
	// text() leaves too.
	_, info2, _ := inferBody(t, `/a/text()/b`)
	if len(info2.Warnings) == 0 {
		t.Errorf("text()/child should warn")
	}
	// self axis after an attribute is NOT statically empty.
	_, info3, _ := inferBody(t, `/a/@id/.`)
	for _, w := range info3.Warnings {
		t.Errorf("unexpected warning %q", w.Msg)
	}
}

func TestTotalExprProbe(t *testing.T) {
	probe := func(src string, sc shapes.Scope) bool {
		t.Helper()
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return shapes.TotalExpr(e, sc)
	}
	inScope := shapes.Scope{InScope: func(string) bool { return true }}
	noScope := shapes.Scope{InScope: func(string) bool { return false }}
	if !probe(`$x`, inScope) {
		t.Error("in-scope variable reference must be total")
	}
	if probe(`$x`, noScope) {
		t.Error("unknown variable must not be total")
	}
	if !probe(`1 + 2`, noScope) || !probe(`count($x)`, inScope) {
		t.Error("total expressions misjudged")
	}
	// concat's singleton checks can raise on an unbounded argument.
	if probe(`concat("a", $x)`, inScope) {
		t.Error("concat with an unbounded argument is not total")
	}
	if probe(`1 div 0`, noScope) || probe(`//a`, noScope) || probe(`position()`, noScope) {
		t.Error("raising expressions judged total")
	}
	// A user-shadowed built-in name must not borrow the built-in signature.
	shadow := shapes.Scope{IsUserFunc: func(name string) bool { return name == "true" }}
	if probe(`true()`, shadow) {
		t.Error("shadowed true() must not be total")
	}
	if !probe(`true()`, noScope) {
		t.Error("builtin true() is total")
	}
}

func TestSubsumes(t *testing.T) {
	st := func(kind xdm.ItemTestKind, name string, occ xdm.Occurrence) xdm.SequenceType {
		typ, _ := xdm.TypeNamed(name)
		return xdm.SequenceType{Kind: kind, Type: typ, Occurrence: occ}
	}
	oneInt := shapes.Shape{Occ: xdm.One, Atomic: xdm.KInt, NodeFree: true, Total: true}
	optStr := shapes.Shape{Occ: xdm.Optional, Atomic: xdm.KStr, NodeFree: true}
	nodes := shapes.Shape{Occ: xdm.ZeroOrMore}

	if !shapes.Subsumes(oneInt, st(xdm.TestAtomic, "xs:integer", xdm.One)) {
		t.Error("1 int ⊑ xs:integer")
	}
	if !shapes.Subsumes(oneInt, st(xdm.TestAtomic, "xs:decimal", xdm.One)) {
		t.Error("integers match xs:decimal")
	}
	if !shapes.Subsumes(oneInt, st(xdm.TestAnyItem, xdm.One.String(), xdm.ZeroOrMore)) {
		t.Error("1 int ⊑ item()*")
	}
	if shapes.Subsumes(optStr, st(xdm.TestAtomic, "xs:string", xdm.One)) {
		t.Error("? does not fit exactly-one")
	}
	if !shapes.Subsumes(optStr, st(xdm.TestAtomic, "xs:string", xdm.Optional)) {
		t.Error("? str ⊑ xs:string?")
	}
	if shapes.Subsumes(oneInt, st(xdm.TestAtomic, "xs:string", xdm.One)) {
		t.Error("int does not match xs:string")
	}
	if !shapes.Subsumes(nodes, st(xdm.TestAnyNode, "", xdm.ZeroOrMore)) {
		t.Error("* node ⊑ node()*")
	}
	if shapes.Subsumes(nodes, st(xdm.TestElement, "", xdm.ZeroOrMore)) {
		t.Error("node kinds are not tracked; element() must not be assumed")
	}
}

func TestInferModuleWithStatements(t *testing.T) {
	um, err := parser.ParseUpdate(`for $x in //a where $x/@k return delete $x`)
	if err != nil {
		t.Fatal(err)
	}
	info := shapes.InferModule(um)
	if d := info.FirstDiag(); d != nil {
		t.Fatalf("update inference must never produce diagnostics, got %v", d)
	}
	fs := um.Stmts[0].(*ast.ForStmt)
	if sh, ok := info.Of(fs.In); !ok || sh.Occ != xdm.ZeroOrMore {
		t.Errorf("no shape for update for-clause input")
	}
}
