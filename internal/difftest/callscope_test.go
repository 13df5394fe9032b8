package difftest

import (
	"fmt"
	"strings"
	"testing"
)

// callArgs renders the argument list local:id(from), …, local:id(to).
func callArgs(from, to int) string {
	args := make([]string, 0, to-from+1)
	for i := from; i <= to; i++ {
		args = append(args, fmt.Sprintf("local:id(%d)", i))
	}
	return strings.Join(args, ", ")
}

// TestCallScopeMatrix runs the calls and loop bindings whose scope an
// evaluation can get wrong through every configuration, each answer worked
// out by hand. A user-function call swaps the callee's frame, focus and
// depth into the one evaluation context and must put the caller's back on
// every return path, an error included; frames and argument vectors are
// windows on one value stack, which may move to a larger array while a
// frame is half filled; a loop variable is a one-item window on the
// sequence it ranges over; and a path's head filter hands its primary's
// value through, so neither the predicates nor the document-order sort may
// write into a value a variable holds.
func TestCallScopeMatrix(t *testing.T) {
	params := make([]string, 20)
	for i := range params {
		params[i] = fmt.Sprintf("$a%d", i+1)
	}
	s20 := `declare function local:id($x) { string($x) }; ` +
		`declare function local:s20(` + strings.Join(params, ", ") + `) { string-join((` + strings.Join(params, ", ") + `), ",") }; `
	var want20 []string
	for i := 1; i <= 40; i++ {
		if i != 20 {
			want20 = append(want20, fmt.Sprint(i))
		}
	}
	const d = pathFocusDoc
	cases := []struct{ doc, src, want, code string }{
		// A callee error inside a predicate: the catch sees the caller's
		// $i (not the callee's $n = 20) and the predicate's position().
		{d, `declare function local:g($n) { if ($n = 20) then error("boom") else () }; ` +
			`for $i in (1, 2, 3) return ("2|boom|1", "x", "2|boom|3")` +
			`[. = string-join(for $v in (try { local:g($i * 10) } catch ($e) { ($i, $e, position()) }) return string($v), "|")]`,
			"2|boom|1 2|boom|3", ""},
		// A built-in whose third argument raises, caught and uncaught.
		{d, `concat("a", "b", xs:integer("x"))`, "", "FORG0001"},
		{d, `(try { concat("a", "b", xs:integer("x")) } catch ($c, $e) { $c }, concat("c", "d", "e"))`,
			"FORG0001 cde", ""},
		// A user call whose third argument is itself a call, with a local.
		{d, `declare function local:h($x) { let $y := concat($x, $x) return upper-case($y) }; ` +
			`declare function local:f($a, $b, $c) { concat($a, $b, $c) }; ` +
			`(local:f("a", "b", local:h("c")), local:f(local:h("a"), "b", local:f("x", local:h("y"), "z")))`,
			"abCC AAbxYYz", ""},
		// Twenty arguments, each a call, the last a second twenty-slot frame:
		// the stack outgrows its array while the outer frame is half filled.
		{d, s20 + `local:s20(` + callArgs(1, 19) + `, local:s20(` + callArgs(21, 40) + `))`,
			strings.Join(want20, ","), ""},
		// A parameter-type failure, then a good call on the same stack.
		{d, `declare function local:f($x as xs:integer) { $x + 1 }; local:f("a")`, "", "XPTY0004"},
		{d, `declare function local:f($x as xs:integer) { $x + 1 }; ` +
			`(try { local:f("a") } catch ($c, $e) { $c }, local:f(3))`, "XPTY0004 4", ""},
		// A loop variable is a window on its input; the input reads the same
		// afterwards, filtered loop variables included.
		{d, `let $s := (5, 6, 7) return (for $x at $i in $s return ($x[. > 5], $i), $s)`,
			"1 6 2 7 3 5 6 7", ""},
		{d, `let $s := (5, 6, 7) return (for $x at $i in $s return (($x, $i), 0)[1] * $i, $s)`,
			"5 12 21 5 6 7", ""},
		{d, `let $r := <r><a/><b/><c/></r> let $s := ($r/c, $r/a) ` +
			`return (for $x at $i in $s return concat(name($x), $i), for $x in $s return name($x/self::*), name($s[1]))`,
			"c1 a2 c a c", ""},
		{d, `let $s := 1 to 130 return (sum(for $x at $i in $s return $i), count(for $x at $i in $s where $i eq $x return $i))`,
			"8515 130", ""},
		{d, `let $s := (1, 2, 3) return (some $x in $s satisfies $x[. = 2], every $x in $s satisfies $x > 0, $s)`,
			"true true 1 2 3", ""},
		// A head filter hands its value through: sorted on a copy only.
		{d, `let $r := <r><a/><b/></r> let $x := ($r/b, $r/a) return ($x/self::*, name($x[1]))`,
			"<a/> <b/> b", ""},
		// Predicates write into a copy, made at the first write.
		{d, `let $x := (3, 1, 2) return ($x[2], $x)`, "1 3 1 2", ""},
		{d, `let $x := (3, 1, 2) return ($x[. > 1], $x)`, "3 2 3 1 2", ""},
		{d, `let $x := (3, 1, 2) let $y := $x[. > 2] return (($y, 9), $x)`, "3 9 3 1 2", ""},
		{d, `let $r := <r><a n="1"/><a n="2"/><a n="3"/></r> let $x := ($r/a[3], $r/a[1], $r/a[2]) ` +
			`return (data($x[@n > 1]/@n), data($x[2]/@n), for $a in $x return string($a/@n))`,
			"2 3 1 3 1 2", ""},
	}
	for i, tc := range cases {
		c := Case{Seed: int64(-3000 - i), Src: tc.src, Doc: tc.doc}
		if got := Eval(c, Matrix()[0]); got.Out != tc.want || got.Code != tc.code {
			t.Errorf("%s\n\tgot %q (code %q), want %q (code %q)", tc.src, got.Out, got.Code, tc.want, tc.code)
		}
		if d := Check(c, Matrix()); d != nil {
			t.Errorf("%v", d)
		}
	}
}
