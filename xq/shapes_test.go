package xq_test

// Tests for the static shape & cardinality analysis as seen through the
// public API: inevitable type errors rejected at Compile time, the
// WithShapes(false) escape hatch that skips the analysis and changes no plan,
// the plan cache keeping shaped and unshaped plans apart, and EXPLAIN's
// per-node shape annotations.

import (
	"context"
	"strings"
	"testing"

	"lopsided/xq"
)

// TestCompileStaticTypeError: a query that must raise XPTY0004 on every
// evaluation is rejected by Compile with a static error; with shapes off it
// compiles and fails at Eval with the same code, as before.
func TestCompileStaticTypeError(t *testing.T) {
	cases := []string{
		`1 + "a"`,
		`-"x"`,
		`1 lt "a"`,
		`"a" mod 2`,
	}
	for _, src := range cases {
		_, err := xq.Compile(src)
		if err == nil {
			t.Fatalf("Compile(%q): expected static XPTY0004, got nil", src)
		}
		if !xq.IsStaticError(err) {
			t.Fatalf("Compile(%q): error not static: %v", src, err)
		}
		if code := xq.ErrorCode(err); code != "XPTY0004" {
			t.Fatalf("Compile(%q): code = %s, want XPTY0004", src, code)
		}
		var ee *xq.EvalError
		if e, ok := err.(*xq.EvalError); ok {
			ee = e
		} else {
			t.Fatalf("Compile(%q): error type %T, want *xq.EvalError", src, err)
		}
		if ee.Pos.Line == 0 {
			t.Fatalf("Compile(%q): static error carries no source span: %v", src, err)
		}

		q, err := xq.Compile(src, xq.WithShapes(false))
		if err != nil {
			t.Fatalf("Compile(%q) with shapes off: %v", src, err)
		}
		_, err = q.Eval(context.Background(), nil)
		if err == nil || xq.ErrorCode(err) != "XPTY0004" {
			t.Fatalf("Eval(%q) with shapes off: err = %v, want runtime XPTY0004", src, err)
		}
		if xq.IsStaticError(err) {
			t.Fatalf("Eval(%q): runtime error marked static", src)
		}
	}
}

// TestStaticErrorOnlyWhenInevitable: conditional positions must never raise
// statically — the error may not happen at runtime.
func TestStaticErrorOnlyWhenInevitable(t *testing.T) {
	srcs := []string{
		`if (1 eq 1) then 2 else 1 + "a"`,
		`try { 1 + "a" } catch { 0 }`,
		`for $i in (1, 2) return if ($i eq 3) then 1 + "a" else $i`,
	}
	for _, src := range srcs {
		q, err := xq.Compile(src)
		if err != nil {
			t.Fatalf("Compile(%q): unexpected static error %v", src, err)
		}
		if _, err := q.Eval(context.Background(), nil); err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
	}
}

// TestExplainShapeAnnotations: with shapes on, EXPLAIN annotates plan nodes
// with inferred shapes and reports the result shape; with shapes off the
// dump is annotation-free.
func TestExplainShapeAnnotations(t *testing.T) {
	src := `let $x := 1 + 2 return ($x, "a")`
	q, err := xq.Compile(src, xq.WithOptLevel(xq.O0))
	if err != nil {
		t.Fatal(err)
	}
	exp := q.Explain()
	if !strings.Contains(exp, "::{") {
		t.Fatalf("Explain lacks shape annotations:\n%s", exp)
	}
	if !strings.Contains(exp, "shapes: result ") {
		t.Fatalf("Explain lacks result shape line:\n%s", exp)
	}

	qOff, err := xq.Compile(src, xq.WithOptLevel(xq.O0), xq.WithShapes(false))
	if err != nil {
		t.Fatal(err)
	}
	if expOff := qOff.Explain(); strings.Contains(expOff, "::{") {
		t.Fatalf("Explain with shapes off still annotated:\n%s", expOff)
	}
}

// TestCacheKeysShapesApart: the plan cache must not hand a shaped plan to a
// WithShapes(false) caller or vice versa.
func TestCacheKeysShapesApart(t *testing.T) {
	src := `1 + "a"`
	if _, err := xq.CompileCached(src); err == nil || !xq.IsStaticError(err) {
		t.Fatalf("CompileCached: want static error, got %v", err)
	}
	q, err := xq.CompileCached(src, xq.WithShapes(false))
	if err != nil {
		t.Fatalf("CompileCached with shapes off hit the shaped entry: %v", err)
	}
	if _, err := q.Eval(context.Background(), nil); err == nil {
		t.Fatal("expected runtime XPTY0004")
	}
	// And the shaped failure must still be served to shaped callers.
	if _, err := xq.CompileCached(src); err == nil || !xq.IsStaticError(err) {
		t.Fatalf("CompileCached after shapes-off compile: want static error, got %v", err)
	}
}

// TestPlanIgnoresShapes: the optimizer does not read the shape analysis, so
// WithShapes changes neither its Stats nor an access path. A predicate that
// is a path of axis steps fuses `//` either way; any other keeps the
// per-parent grouping either way, and a dead let the analysis proves total
// is kept either way.
func TestPlanIgnoresShapes(t *testing.T) {
	for _, c := range []struct {
		src   string
		fused bool
	}{
		{`//item[../blurb]`, true},
		{`//item[title]`, true},
		{`//item[@k]`, true},
		{`//item[contains(., 'v')]`, false},
		{`//item[1]`, false},
		{`//item[last()]`, false},
		{`let $dead := "3" cast as xs:string return 1`, false},
	} {
		on := workloadPlan(t, c.src, false, xq.WithShapes(true))
		if off := workloadPlan(t, c.src, false, xq.WithShapes(false)); on != off {
			t.Errorf("%s: plan depends on shapes:\n on %s\noff %s", c.src, on, off)
		}
		if fused := strings.Contains(on, "fused //"); fused != c.fused {
			t.Errorf("%s: fused = %v, want %v:\n%s", c.src, fused, c.fused, on)
		}
		if strings.Contains(on, "lets=1") {
			t.Errorf("%s: a let was eliminated:\n%s", c.src, on)
		}
	}
}

// TestUpdateNeverStatic: update programs never raise static shape errors,
// even when a statement embeds an inevitable type error — the statement
// pipeline keeps its own error order.
func TestUpdateNeverStatic(t *testing.T) {
	doc, err := xq.ParseXML(`<doc><a/></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	up, err := xq.CompileUpdate(`delete /doc/a[1 + "a"];`)
	if err != nil {
		t.Fatalf("CompileUpdate raised: %v", err)
	}
	if _, err := up.Transform(context.Background(), doc); err == nil || xq.ErrorCode(err) != "XPTY0004" {
		t.Fatalf("Transform err = %v, want runtime XPTY0004", err)
	}
}

// TestShapedMatchesUnshaped: argument-check elision is the one shape consumer
// with no runtime guard — a call whose argument shape is subsumed by the
// declared parameter type skips the check outright — so a built-in row that
// over-promises turns straight into a wrong answer. Each query must end the
// same way, result or error code, with the analysis on and off.
func TestShapedMatchesUnshaped(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		// remove and insert-before hand back their sequence arguments'
		// items; a signature that could not say so called them "nodes only"
		// and these answered 2 and 3.
		{`declare function local:f($n as node()*) { count($n) }; local:f(remove((1,2,3), 1))`, "!XPTY0004"},
		{`declare function local:f($n as node()*) { count($n) }; local:f(insert-before((1,2), 1, "x"))`, "!XPTY0004"},
		{`declare function local:f($n as item()*) { count($n) }; local:f(remove((1,2,3), 1))`, "2"},
		{`declare function local:f($n as xs:integer*) { count($n) }; local:f(insert-before((1,2), 1, 7))`, "3"},
		// sum over one non-numeric raises as it does over two; it answered 1.
		{`declare function local:f($n as xs:numeric) { count($n) }; local:f(sum("a"))`, "!XPTY0004"},
		{`declare function local:f($n as xs:numeric) { count($n) }; local:f(sum(("a", "b")))`, "!XPTY0004"},
		{`declare function local:f($n as xs:numeric) { $n }; local:f(sum(<a>4</a>))`, "4"},
		// The restricted integers are castable, with a range check; a
		// parameter of that type never has its check elided on kind alone.
		{`declare function local:f($n as xs:positiveInteger) { $n }; local:f(xs:positiveInteger("5"))`, "5"},
		{`declare function local:f($n as xs:positiveInteger) { $n }; local:f(0)`, "!XPTY0004"},
		{`xs:nonNegativeInteger("-1")`, "!FORG0001"},
		{`0 cast as xs:positiveInteger`, "!FORG0001"},
		{`(5 castable as xs:positiveInteger, 0 castable as xs:positiveInteger)`, "true false"},
		{`xs:numeric("5")`, "!XPST0051"},
		{`xs:date(())`, ""},
	} {
		for _, shapes := range []bool{true, false} {
			got := ""
			q, err := xq.Compile(c.src, xq.WithShapes(shapes))
			if err == nil {
				got, err = q.EvalString(context.Background(), nil)
			}
			if err != nil {
				got = "!" + xq.ErrorCode(err)
			}
			if got != c.want {
				t.Errorf("%s (shapes %v): %s, want %s", c.src, shapes, got, c.want)
			}
		}
	}
}
