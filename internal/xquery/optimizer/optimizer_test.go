package optimizer

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lopsided/internal/obs"
	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/parser"
)

// evalModule compiles an (optimized) module and evaluates it through
// Program.Eval under opts, returning the serialized result.
func evalModule(mod *ast.Module, opts interp.Options) (string, error) {
	p, err := interp.NewProgramWithShapes(mod, nil)
	if err != nil {
		return "", err
	}
	out, err := p.Eval(context.Background(), nil, nil, opts)
	return interp.SerializeSeq(out), err
}

// evalOpt parses, optimizes at the given level, evaluates, and returns the
// serialized result plus trace output.
func evalOpt(t *testing.T, src string, opts Options) (string, []string) {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(mod, opts)
	var traced []string
	out, err := evalModule(mod, interp.Options{
		Tracer: obs.TraceFunc(func(values []string) { traced = append(traced, strings.Join(values, " ")) }),
	})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return out, traced
}

// TestTraceDeadCodeAnecdote reproduces the paper's central debugging story:
//
//	LET $x := something
//	LET $dummy := trace("x=", $x)
//	LET $y := something-else
//
// With Galax's dead-code elimination and trace treated as pure, $dummy is
// optimized away — along with the call to trace. With the fix (trace is
// effectful), the trace survives.
func TestTraceDeadCodeAnecdote(t *testing.T) {
	src := `
	let $x := 2 + 3
	let $dummy := trace("x=", $x)
	let $y := $x * 10
	return $y`

	// Unoptimized: trace fires.
	out, traced := evalOpt(t, src, Options{Level: O0})
	if out != "50" || len(traced) != 1 || traced[0] != "x= 5" {
		t.Fatalf("O0: out=%q traced=%v", out, traced)
	}

	// Galax-era O2 with trace pure: the trace silently disappears.
	out, traced = evalOpt(t, src, Options{Level: O2, TraceIsEffectful: false})
	if out != "50" {
		t.Fatalf("O2 result changed: %q", out)
	}
	if len(traced) != 0 {
		t.Fatalf("O2/pure-trace: trace should have been eliminated, got %v", traced)
	}

	// Post-fix O2: trace survives dead-code elimination.
	out, traced = evalOpt(t, src, Options{Level: O2, TraceIsEffectful: true})
	if out != "50" || len(traced) != 1 {
		t.Fatalf("O2/effectful-trace: out=%q traced=%v", out, traced)
	}
}

// TestTraceInsinuatedSurvives reproduces the paper's workaround: insinuating
// the trace into non-dead code (`let $x := trace("x=", something)`) defeats
// the dead-code pass even in the buggy configuration.
func TestTraceInsinuatedSurvives(t *testing.T) {
	src := `
	let $x := trace("x=", 2 + 3)
	let $y := $x * 10
	return $y`
	out, traced := evalOpt(t, src, Options{Level: O2, TraceIsEffectful: false})
	if out != "50" || len(traced) != 1 {
		t.Fatalf("insinuated trace must survive: out=%q traced=%v", out, traced)
	}
}

func TestDeadLetElimination(t *testing.T) {
	src := `
	let $used := 1
	let $dead := (2, 3, 4)
	let $alsodead := "x"
	return $used`
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(mod, Options{Level: O2})
	if stats.EliminatedLets != 2 {
		t.Fatalf("eliminated = %d, want 2", stats.EliminatedLets)
	}
	fl, ok := mod.Body.(*ast.FLWOR)
	if !ok {
		t.Fatalf("body is %T", mod.Body)
	}
	if len(fl.Clauses) != 1 {
		t.Fatalf("clauses = %d, want 1", len(fl.Clauses))
	}
}

func TestDeadLetKeepsImpure(t *testing.T) {
	cases := []string{
		`let $dead := error("boom") return 1`,
		`let $dead := doc("x.xml") return 1`,
	}
	for _, src := range cases {
		mod, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		stats := Optimize(mod, Options{Level: O2})
		if stats.EliminatedLets != 0 {
			t.Errorf("%q: impure dead let must be kept", src)
		}
	}
	// User function calls are conservatively impure.
	src := `declare function local:f() { error("boom") };
	        let $dead := local:f() return 1`
	mod, _ := parser.Parse(src)
	stats := Optimize(mod, Options{Level: O2})
	if stats.EliminatedLets != 0 {
		t.Error("user-call dead let must be kept")
	}
}

func TestAllLetsDeadReducesToReturn(t *testing.T) {
	mod, err := parser.Parse(`let $a := 1 let $b := 2 return 42`)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(mod, Options{Level: O2})
	if _, ok := mod.Body.(*ast.IntLit); !ok {
		t.Fatalf("body should reduce to the return literal, got %T", mod.Body)
	}
}

func TestConstantFolding(t *testing.T) {
	mod, err := parser.Parse(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(mod, Options{Level: O1})
	if stats.FoldedConstants != 2 {
		t.Fatalf("folded = %d, want 2", stats.FoldedConstants)
	}
	lit, ok := mod.Body.(*ast.IntLit)
	if !ok || lit.Value != 7 {
		t.Fatalf("body = %#v", mod.Body)
	}
}

func TestFoldingPreservesSemantics(t *testing.T) {
	cases := []struct{ src, want string }{
		{`1 + 2 * 3 - 4`, "3"},
		{`concat("a", "b", "c")`, "abc"},
		{`if (1 lt 2) then "y" else "n"`, "y"},
		{`if ("") then "y" else "n"`, "n"},
		{`- 5 + 1`, "-4"},
		{`"a" eq "a"`, "true"},
		{`2 = 3`, "false"},
		{`for $x in (1,2,3) return $x + (1 * 2)`, "3 4 5"},
		{`<a x="{1+1}">{2+3}</a>`, `<a x="2">5</a>`},
	}
	for _, c := range cases {
		for _, lvl := range []Level{O0, O1, O2} {
			got, _ := evalOpt(t, c.src, Options{Level: lvl, TraceIsEffectful: true})
			if got != c.want {
				t.Errorf("%q at O%d = %q, want %q", c.src, lvl, got, c.want)
			}
		}
	}
}

func TestDivisionNeverFolded(t *testing.T) {
	mod, err := parser.Parse(`1 div 0`)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(mod, Options{Level: O2})
	if stats.FoldedConstants != 0 {
		t.Fatal("division must not be folded")
	}
	if _, ok := mod.Body.(*ast.Binary); !ok {
		t.Fatal("division expression must survive")
	}
}

func TestWhereKeepsAClause(t *testing.T) {
	// All lets dead but a where present: the FLWOR must stay valid.
	src := `let $a := 1 where 2 gt 1 return "kept"`
	got, _ := evalOpt(t, src, Options{Level: O2})
	if got != "kept" {
		t.Fatalf("got %q", got)
	}
}

func TestOptimizeInsideFunctionsAndVars(t *testing.T) {
	src := `
	declare variable $v := 2 + 3;
	declare function local:f($x) { $x + (1 + 1) };
	local:f($v)`
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(mod, Options{Level: O1})
	if stats.FoldedConstants != 2 {
		t.Fatalf("folded = %d, want 2 (one in var, one in function)", stats.FoldedConstants)
	}
}

func TestUsesVarShadowConservative(t *testing.T) {
	// A shadowed use still counts as a use (conservative correctness).
	src := `
	let $x := 1
	return for $x in (2,3) return $x`
	mod, _ := parser.Parse(src)
	Optimize(mod, Options{Level: O2})
	got, _ := evalOpt(t, src, Options{Level: O2})
	if got != "2 3" {
		t.Fatalf("shadowing semantics broken: %q", got)
	}
}

func TestFoldGeneralCompLiterals(t *testing.T) {
	mod, _ := parser.Parse(`"abc" = "abc"`)
	stats := Optimize(mod, Options{Level: O1})
	if stats.FoldedConstants != 1 {
		t.Fatal("literal general comparison should fold")
	}
	call, ok := mod.Body.(*ast.FunctionCall)
	if !ok || call.Name != "true" {
		t.Fatalf("body = %#v", mod.Body)
	}
}

func TestOptimizerLevelOrdering(t *testing.T) {
	src := `let $dead := 1 return 2 + 3`
	mod, _ := parser.Parse(src)
	s0 := Optimize(mod, Options{Level: O0})
	if s0.FoldedConstants != 0 || s0.EliminatedLets != 0 {
		t.Fatal("O0 must do nothing")
	}
	mod1, _ := parser.Parse(src)
	s1 := Optimize(mod1, Options{Level: O1})
	if s1.FoldedConstants == 0 || s1.EliminatedLets != 0 {
		t.Fatal("O1 folds but does not eliminate")
	}
	mod2, _ := parser.Parse(src)
	s2 := Optimize(mod2, Options{Level: O2})
	if s2.FoldedConstants == 0 || s2.EliminatedLets != 1 {
		t.Fatal("O2 folds and eliminates")
	}
}

// quick sanity for the xdm import used in fold.go literalAtom coverage.
func TestLiteralAtom(t *testing.T) {
	it, ok := literalAtom(&ast.DecimalLit{Value: 1.5})
	if !ok || it.(xdm.Decimal) != 1.5 {
		t.Fatal("decimal literal atom")
	}
	it, ok = literalAtom(&ast.DoubleLit{Value: 2})
	if !ok || it.(xdm.Double) != 2 {
		t.Fatal("double literal atom")
	}
	if _, ok := literalAtom(&ast.EmptySeq{}); ok {
		t.Fatal("empty seq is not an atom")
	}
}

// TestOptimizationPreservesAllConstructs runs a battery covering every AST
// form through O0, O1 and O2 and requires identical results, or the same
// error code at the same position — the optimizer must be
// semantics-preserving everywhere, not just on the forms the anecdote
// exercises.
func TestOptimizationPreservesAllConstructs(t *testing.T) {
	sources := []string{
		// Quantified and typeswitch.
		`some $x in (1,2,3) satisfies $x gt 1 + 1`,
		`every $x in (1 to 4) satisfies $x lt 2 + 9`,
		`typeswitch (1 + 1) case xs:integer return "i" default return "d"`,
		`typeswitch ("s") case $v as xs:string return concat($v, "!") default $d return $d`,
		// Paths with predicates and primaries.
		`(1 to 10)[. mod (1 + 1) = 0][last()]`,
		`<r><a/><b/></r>/*[1 + 1]`,
		// Range, union, set ops.
		`count((1 + 0) to (2 + 2))`,
		`let $d := <r><a/><b/></r> return count($d/a | $d/b)`,
		`let $d := <r><a/><b/></r> return count($d/* except $d/a)`,
		`let $d := <r><a/><b/></r> return count($d/* intersect $d/b)`,
		// Constructors, direct and computed, with folded parts.
		`<el a="{1 + 1}">{2 + 3}<kid/>{concat("x", "y")}</el>`,
		`element e { attribute a { 1 + 1 }, text { concat("a","b") } }`,
		`document { <a>{1 + 1}</a> }`,
		`comment { concat("a", "b") }`,
		`processing-instruction pi { 1 + 1 }`,
		// Casts, instance, treat, castable.
		`("4" cast as xs:integer) + (1 + 1)`,
		`(1 + 1) instance of xs:integer`,
		`(1, 2) treat as xs:integer+`,
		`"x" castable as xs:double`,
		// Try/catch with foldable bodies.
		`try { 1 + 1 } catch { "no" }`,
		`try { error(concat("a","b")) } catch ($m) { $m }`,
		// FLWOR with order by, positional vars, where.
		`for $x at $i in (30, 10, 20) where $x gt 5 + 5 order by $x descending return $i`,
		// Unary and nested negation.
		`- - (2 + 3)`,
		// Node comparisons.
		`let $d := <r><a/><b/></r> return ($d/a << $d/b, $d/a is $d/a)`,
		// Deeply-nested lets with shadowing and partial deadness.
		`let $a := 1 + 1 let $b := $a + 1 let $dead := "unused" return let $a := $b return $a`,
		// Integer arithmetic at the int64 edges raises FOAR0002: a constant
		// the runtime would refuse is left unfolded for it to refuse.
		`9223372036854775807 + 1`,
		`(-9223372036854775807 - 1) - 1`,
		`4611686018427387904 * 2`,
		`-9223372036854775807 - 2`,
	}
	for _, src := range sources {
		var results [3]string
		for lvl := O0; lvl <= O2; lvl++ {
			mod, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			Optimize(mod, Options{Level: lvl, TraceIsEffectful: true})
			got, err := evalModule(mod, interp.Options{})
			if e, ok := err.(*interp.Error); ok {
				got = fmt.Sprintf("[%s] %d:%d", e.Code, e.Pos.Line, e.Pos.Col)
			} else if err != nil {
				t.Fatalf("%q at O%d: %v", src, lvl, err)
			}
			results[lvl] = got
		}
		if results[O0] != results[O1] || results[O0] != results[O2] {
			t.Errorf("%q: O0=%q O1=%q O2=%q", src, results[O0], results[O1], results[O2])
		}
	}
}

// TestStatsAccounting: the stats reflect what happened.
func TestStatsAccounting(t *testing.T) {
	mod, err := parser.Parse(`let $dead := 1 + 1 let $d2 := "x" return 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(mod, Options{Level: O2})
	if stats.FoldedConstants != 2 || stats.EliminatedLets != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// O0 never touches the tree: same module optimized at O0 reports zeros.
	mod2, _ := parser.Parse(`1 + 1`)
	if s := Optimize(mod2, Options{Level: O0}); s.FoldedConstants != 0 {
		t.Fatal("O0 must not fold")
	}
}

// TestDeadLetKeepsErrorRaising: dead-code elimination must never hide a
// dynamic error. These all raise at O0; before the eliminability rework the
// O2 pipeline silently dropped the bindings and returned the FLWOR's return
// value instead — a cross-configuration divergence the differential harness
// (internal/difftest) now guards.
func TestDeadLetKeepsErrorRaising(t *testing.T) {
	cases := []string{
		`let $dead := 1 idiv 0 return 2`,
		`let $dead := 1 div 0 return 2`,
		`let $dead := 5 mod 0 return 2`,
		`let $dead := "a" cast as xs:integer return 2`,
		`let $dead := 1 + "x" return 2`,
		`let $dead := (1,2) treat as xs:integer return 2`,
		`let $dead := concat((1,2), "x") return 2`,
		`let $dead := $unbound-name return 2`,
		// Integer overflow, binary and unary: FOAR0002.
		`let $dead := 9223372036854775807 + 1 return 2`,
		`let $dead := -(-9223372036854775807 - 1) return 2`,
	}
	for _, src := range cases {
		mod, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		stats := Optimize(mod, Options{Level: O2})
		if stats.EliminatedLets != 0 {
			t.Errorf("%q: error-raising dead let must be kept", src)
		}
	}
}

// TestDeadLetEliminatesTotalExprs: the whitelist still fires for bindings
// that provably cannot raise — literals, sequences of literals, in-scope
// variable references, unary minus over a numeric literal.
func TestDeadLetEliminatesTotalExprs(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{`let $dead := 1 return 2`, 1},
		{`let $dead := -1.5 return 2`, 1},
		{`let $dead := -1 return 2`, 1}, // folded to a literal first
		{`let $dead := ("a", 1, 2.5e0, ()) return 2`, 1},
		// Single pass: $dead dies; $x survives because the original clause
		// list still references it from $dead's value.
		{`let $x := 1 let $dead := $x return 2`, 1},
		{`let $dead := true() return 2`, 1},
	}
	for _, c := range cases {
		mod, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		stats := Optimize(mod, Options{Level: O2})
		if stats.EliminatedLets != c.want {
			t.Errorf("%q: eliminated %d lets, want %d", c.src, stats.EliminatedLets, c.want)
		}
	}
}

// TestDeadLetUnboundVarKept: a dead let whose value references an unbound
// variable must survive so evaluation still reports XPST0008 at every
// optimization level (free variables are a runtime question here — they may
// be supplied externally — so elimination would have hidden the error
// entirely).
func TestDeadLetUnboundVarKept(t *testing.T) {
	mod, err := parser.Parse(`let $dead := $nowhere return 1`)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(mod, Options{Level: O2})
	if _, err := evalModule(mod, interp.Options{}); err == nil {
		t.Fatal("unbound variable in a dead let must still raise XPST0008 at O2")
	}
}

// TestConcatFoldRespectsArity: fn:concat requires two arguments; folding a
// one-argument call would turn the runtime's XPST0017 into a success.
func TestConcatFoldRespectsArity(t *testing.T) {
	for _, src := range []string{`concat("a")`, `concat()`} {
		mod, err := parser.Parse(src)
		if err != nil {
			continue // parser may reject concat(); either behavior is consistent
		}
		stats := Optimize(mod, Options{Level: O1})
		if stats.FoldedConstants != 0 {
			t.Errorf("%q: under-arity concat must not fold", src)
		}
	}
}

// TestTraceDeadLetStillEliminatedInGalaxMode: the eliminability rework must
// not break the paper's anecdote — in the Galax-era configuration a dead
// `let $dummy := trace("x=", $x)` still disappears, trace call included.
func TestTraceDeadLetStillEliminatedInGalaxMode(t *testing.T) {
	src := `let $x := 2 + 3 let $dummy := trace("x=", $x) return $x`
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(mod, Options{Level: O2, TraceIsEffectful: false})
	if stats.EliminatedLets != 1 || stats.ElidedTraces != 1 {
		t.Fatalf("stats = %+v, want one eliminated let with one elided trace", stats)
	}
}

// TestElidedTracesInSourceOrder: Module.ElidedTraces is what EXPLAIN lists
// and the order the runtime reports elided sites to a structured tracer —
// the C4 artifact — so it follows the source, also across the binders whose
// later child used to be rewritten first (a catch body before its try, a
// typeswitch's cases before its operand).
func TestElidedTracesInSourceOrder(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`try { let $d := trace("a", 1) return 1 } catch ($c, $m) { let $e := trace("b", 2) return 2 }`,
			"1:17 a | 1:69 b"},
		{`typeswitch (let $d := trace("op", 0) return 1) case xs:integer return (let $e := trace("case", 1) return 1) default return (let $f := trace("def", 2) return 2)`,
			"1:23 op | 1:82 case | 1:135 def"},
	} {
		mod, err := parser.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		Optimize(mod, Options{Level: O2, TraceIsEffectful: false})
		var got []string
		for _, et := range mod.ElidedTraces {
			got = append(got, fmt.Sprintf("%d:%d %s", et.P.Line, et.P.Col, et.Values[0]))
		}
		if s := strings.Join(got, " | "); s != tc.want {
			t.Errorf("%s:\n elided %s\n   want %s", tc.src, s, tc.want)
		}
	}
}
