package interp

import (
	"context"
	"strings"
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
)

// The try/catch extension: the rudimentary exception handling the paper's
// lesson #4 asks every little language to provide.

func TestTryCatchBasics(t *testing.T) {
	tests := []struct{ src, want string }{
		{`try { 1 + 1 } catch { "caught" }`, "2"},
		{`try { error("boom") } catch { "caught" }`, "caught"},
		{`try { error("boom") } catch ($e) { concat("got: ", $e) }`, "got: boom"},
		{`try { error("CODE9", "desc") } catch ($c, $m) { concat($c, "/", $m) }`, "CODE9/desc"},
		{`try { 1 div 0 } catch ($c, $m) { $c }`, "FOAR0001"},
		{`try { $undefined } catch ($c, $m) { $c }`, "XPST0008"},
		{`try { "x" cast as xs:integer } catch { -1 }`, "-1"},
		// Nested: inner catch wins.
		{`try { try { error("inner") } catch ($e) { concat("i:", $e) } } catch { "outer" }`, "i:inner"},
		// Errors inside the catch propagate (and are catchable outside).
		{`try { try { error("a") } catch { error("b") } } catch ($e) { $e }`, "b"},
		// Errors in user functions are catchable.
		{`declare function local:f() { error("deep") }; try { local:f() } catch ($e) { $e }`, "deep"},
		// The catch expression sees enclosing bindings.
		{`let $x := 10 return try { error("e") } catch { $x + 1 }`, "11"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); got != tt.want {
			t.Errorf("%q = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestTryCatchDoesNotMaskSuccess(t *testing.T) {
	// try around the paper's error convention: the <error> VALUE is not an
	// exception, so try/catch does not intercept it — the two error styles
	// really are different mechanisms.
	src := `let $v := try { <error gen-error="true"/> } catch { "caught" }
	        return name($v)`
	if got := run(t, src); got != "error" {
		t.Fatalf("got %q", got)
	}
}

func TestTryCatchParseErrors(t *testing.T) {
	cases := []string{
		`try { 1 }`,                     // missing catch
		`try { 1 } catch ($a $b) { 2 }`, // malformed vars
		`try { 1 } catch (x) { 2 }`,     // not a variable
		`try { 1 } catch ($a, $b, $c) {2}`,
	}
	for _, src := range cases {
		if _, err := runE(src); err == nil {
			t.Errorf("%q should not parse", src)
		}
	}
	// `try` as a plain element name still works (context-sensitive).
	if got := run(t, `count(<try/>)`); got != "1" {
		t.Fatal("try as constructor name")
	}
	// A path step named try still works.
	if got := runCtx(t, `count(/r/try)`, `<r><try/></r>`); got != "1" {
		t.Fatal("try as path step")
	}
}

func TestTryCatchRecursionLimitCatchable(t *testing.T) {
	src := `declare function local:loop($n) { local:loop($n + 1) };
	        try { local:loop(0) } catch ($c, $m) { $c }`
	p, err := compileSrc(src)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.Eval(context.Background(), nil, nil, Options{Limits: Limits{MaxDepth: 32}})
	if out := SerializeSeq(seq); err != nil || out != "LOPS0003" {
		t.Fatalf("got %q, %v", out, err)
	}
}

// TestTryCatchCollapsesCeremony is the point of the extension: the E4
// chain, written with error() + a single try/catch, needs no per-call
// checks at all.
func TestTryCatchCollapsesCeremony(t *testing.T) {
	src := `
	declare variable $doc external;
	declare function local:required-child($t, $name) {
	  let $c := $t/*[name(.) = $name]
	  return if (empty($c)) then error("GEN", concat("no child named ", $name)) else $c[1]
	};
	try {
	  let $c1 := local:required-child($doc/root, "c1")
	  let $c2 := local:required-child($c1, "c2")
	  let $c3 := local:required-child($c2, "c3")
	  return name($c3)
	} catch ($m) { concat("trouble: ", $m) }`
	p, err := compileSrc(src)
	if err != nil {
		t.Fatal(err)
	}
	evalDoc := func(src string) (string, error) {
		vars := map[string]xdm.Sequence{"doc": xdm.Singleton(xdm.NewNode(xmltree.MustParse(src)))}
		out, err := p.Eval(context.Background(), nil, vars, Options{})
		return SerializeSeq(out), err
	}
	out, err := evalDoc(`<root><c1><c2><c3/></c2></c1></root>`)
	if err != nil || out != "c3" {
		t.Fatalf("success path: %q %v", out, err)
	}
	out, err = evalDoc(`<root><c1><c2/></c1></root>`)
	if err != nil || !strings.Contains(out, "trouble: no child named c3") {
		t.Fatalf("failure path: %q %v", out, err)
	}
}
