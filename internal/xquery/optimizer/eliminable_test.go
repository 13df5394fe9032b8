package optimizer

// Audit of the dead-let eliminability rule. The syntactic whitelist is the
// only judge; the shape analysis no longer answers, but it still audits:
// everything the whitelist accepts, shapes must infer total. The whitelist
// must stay strict on the two corners it was built around: fn:trace
// effectfulness and user functions shadowing built-in names.

import (
	"testing"

	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/parser"
	"lopsided/internal/xquery/shapes"
)

// newTestOptimizer builds an optimizer with the given bound variables and
// declared user-function names, mirroring the state rewriteFLWOR would have
// mid-walk.
func newTestOptimizer(opts Options, vars, funcs []string) *optimizer {
	o := &optimizer{opts: opts, userFuncs: map[string]bool{}, scope: map[string]int{}}
	for _, v := range vars {
		o.bind(v)
	}
	for _, f := range funcs {
		o.userFuncs[f] = true
	}
	return o
}

func parseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

// TestEliminableAgreementAudit pins the agreement: every expression the
// syntactic whitelist accepts, the shape analysis must independently prove
// total under the same scope. A failure here means the whitelist
// over-promises: it would drop a binding that can raise.
func TestEliminableAgreementAudit(t *testing.T) {
	corpus := []string{
		`1`, `"a"`, `1.5`, `1e0`, `()`,
		`$x`, `$nope`,
		`(1, "a", $x)`, `(1, $nope)`,
		`-5`, `-1.5`, `-$x`,
		`true()`, `false()`, `not(true())`,
		`trace("a", 1)`, `trace($x, "lbl")`, `trace()`,
		`1 + 2`, `1 div 0`, `//a`, `position()`,
		`concat("a", "b")`, `count($x)`, `string-length("abc")`,
		`"a" cast as xs:string`, `"a" cast as xs:integer`,
	}
	o := newTestOptimizer(Options{Level: O2}, []string{"x"}, nil)
	sc := shapes.Scope{
		InScope:    func(name string) bool { return o.scope[name] > 0 },
		IsUserFunc: func(name string) bool { return o.userFuncs[name] },
	}
	for _, src := range corpus {
		e := parseExpr(t, src)
		if o.eliminable(e) && !shapes.InferExpr(e, sc).Total {
			t.Errorf("%s: syntactic whitelist accepts but shapes cannot prove totality", src)
		}
	}
}

// TestEliminableShapesUpgrade: the expressions the shape analysis proves
// total but the whitelist does not name stay refused — shapes no longer
// upgrades a verdict — and genuinely risky ones stay refused too.
func TestEliminableShapesUpgrade(t *testing.T) {
	cases := []struct {
		src   string
		total bool // what the shape analysis infers
	}{
		{`"a" cast as xs:string`, true},
		{`count($x)`, true},
		{`string-length("abc")`, true},
		{`1 eq 2`, true},
		{`1 + 2`, false},                  // FOAR0002 on overflow
		{`1 div 0`, false},                // FOAR0001
		{`1 idiv 2`, false},               // FOAR0001/0002 even on safe operands
		{`//a`, false},                    // needs a focus: XPDY0002
		{`position()`, false},             // focus-dependent
		{`"a" cast as xs:integer`, false}, // FORG0001
		{`no-such-fn(1)`, false},          // XPST0017
		{`concat("a", $x)`, false},        // unbounded arg: AtMostOne can raise
	}
	o := newTestOptimizer(Options{Level: O2}, []string{"x"}, nil)
	sc := shapes.Scope{InScope: func(name string) bool { return o.scope[name] > 0 }}
	for _, c := range cases {
		e := parseExpr(t, c.src)
		if o.eliminable(e) {
			t.Errorf("eliminable(%s) = true; only the whitelist decides", c.src)
		}
		if got := shapes.InferExpr(e, sc).Total; got != c.total {
			t.Errorf("%s: shapes infers total=%v, want %v", c.src, got, c.total)
		}
	}
}

// TestEliminableTraceCorners: a dead trace binding is dropped only in the
// Galax-era configuration, only over whitelisted arguments, and only when
// the call reaches the built-in whose row Emits.
func TestEliminableTraceCorners(t *testing.T) {
	galax := newTestOptimizer(Options{Level: O2}, nil, nil)
	fixed := newTestOptimizer(Options{Level: O2, TraceIsEffectful: true}, nil, nil)
	for _, src := range []string{`trace("a", 1)`, `fn:trace("a", 1)`} {
		e := parseExpr(t, src)
		if !galax.eliminable(e) {
			t.Errorf("galax-era config: %s over literals should be eliminable", src)
		}
		if fixed.eliminable(e) {
			t.Errorf("TraceIsEffectful: %s must never be eliminable", src)
		}
	}
	// A non-literal argument is outside the whitelist, total or not.
	if galax.eliminable(parseExpr(t, `trace(1 + 2, "lbl")`)) {
		t.Error("trace(1 + 2, ...) must not pass the syntactic whitelist (1 + 2 is not a literal)")
	}
	// ... and so is a trace buried inside a larger expression.
	if galax.eliminable(parseExpr(t, `concat("a", trace("b", "lbl"))`)) {
		t.Error("buried trace must block elimination")
	}
	// A user function named trace is not the built-in.
	shadowed := newTestOptimizer(Options{Level: O2}, nil, []string{"trace"})
	if shadowed.eliminable(parseExpr(t, `trace("a", 1)`)) {
		t.Error("a call resolving to a user function named trace must not be eliminable")
	}

	// End to end: O2 folds 1 + 2 before judging the let, so the galax-era
	// whitelist drops the binding and records the elided trace site for the
	// structured tracer.
	mod, err := parser.Parse(`let $dummy := trace(1 + 2, "lbl") return 9`)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(mod, Options{Level: O2})
	if stats.EliminatedLets != 1 || stats.ElidedTraces != 1 {
		t.Fatalf("galax-era stats = %+v", stats)
	}
	if len(mod.ElidedTraces) != 1 {
		t.Fatalf("elided trace sites not recorded: %v", mod.ElidedTraces)
	}
}

// TestEliminableShadowedBuiltin: a user function shadowing a built-in name
// must not borrow the built-in's place on the whitelist.
func TestEliminableShadowedBuiltin(t *testing.T) {
	for _, c := range []struct {
		src  string
		want bool // eliminable when nothing shadows the name
	}{
		{`true()`, true},
		{`false()`, true},
		{`count("a")`, false}, // total, but not on the whitelist
	} {
		e := parseExpr(t, c.src)
		name := e.(*ast.FunctionCall).Name
		clean := newTestOptimizer(Options{Level: O2}, nil, nil)
		if got := clean.eliminable(e); got != c.want {
			t.Errorf("%s: built-in call eliminable = %v, want %v", c.src, got, c.want)
		}
		shadowed := newTestOptimizer(Options{Level: O2}, nil, []string{name})
		if shadowed.eliminable(e) {
			t.Errorf("%s: call resolving to a user function must not be eliminable", c.src)
		}
	}
}

// TestOptimizeShapesDeadLet: the full pipeline keeps a dead let the shape
// analysis could prove total but the whitelist does not name.
func TestOptimizeShapesDeadLet(t *testing.T) {
	mod, err := parser.Parse(`let $u := "a" cast as xs:string return 9`)
	if err != nil {
		t.Fatal(err)
	}
	stats := Optimize(mod, Options{Level: O2})
	if _, isFLWOR := mod.Body.(*ast.FLWOR); !isFLWOR {
		t.Fatal("cast binding eliminated; only the syntactic whitelist may drop a let")
	}
	if stats.EliminatedLets != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}
