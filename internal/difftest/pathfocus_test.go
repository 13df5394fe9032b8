package difftest

import "testing"

// pathFocusDoc has sections of different widths, one of them empty, so that
// a positional predicate inside a path counts per context node, and a few
// attributes that only some candidates carry.
const pathFocusDoc = `<r>` +
	`<s n="1"><i n="1.1"/><i n="1.2"/><i n="1.3"/></s>` +
	`<s n="2"><i n="2.1"/></s>` +
	`<s n="3"/>` +
	`<s n="4"><i n="4.1" k="a"/><i n="4.2"/><i n="4.3" k="b"/><i n="4.4" k="c"/></s>` +
	`</r>`

// TestPathFocusMatrix runs the path steps whose focus and buffers a step can
// get wrong through every configuration, each answer worked out by hand. A
// step appends what it selects for each context node onto one buffer for the
// whole step and filters that tail in place, so positions and last() must
// stay relative to the context node, a predicate that raises must raise, and
// neither the in-place filter nor the document-order sort that follows may
// touch a value someone else holds (a variable the path starts from). A step
// that selects nothing ends the path: the next step must not run against the
// enclosing focus instead.
func TestPathFocusMatrix(t *testing.T) {
	// Rows that build their own trees run with no context item too, where
	// a step handed the enclosing focus raises XPDY0002 instead of
	// answering from the document.
	const d = pathFocusDoc
	cases := []struct{ doc, src, want, code string }{
		// A path does not reorder, or deduplicate, the variable it starts from.
		{d, `let $r := <r><a/><b/></r> let $x := ($r/b, $r/a) return (count($x/.), name($x[1]))`, "2 b", ""},
		{d, `let $r := <r><a/></r> let $x := ($r/a, $r/a) return (count($x/.), count($x), name($x[2]))`, "1 2 a", ""},
		{d, `declare variable $x := (/r/s[2], /r/s[1]); (count($x/i), data($x[1]/@n))`, "4 2", ""},
		// A step that keeps nothing ends the path.
		{d, `let $a := <a k="x"><b/></a> return $a/string(b[2]/@k)`, "", ""},
		{d, `let $a := <a k="x"><b/></a> return $a/count(b[@z]/@k)`, "0", ""},
		{d, `let $a := <a k="x"><b/></a> return count($a/b[2]/@k)`, "0", ""},
		{"", `let $a := <a k="x"><b/></a> return $a/string(b[2]/@k)`, "", ""},
		{"", `let $a := <a k="x"><b/></a> return $a/count(b[@z]/@k)`, "0", ""},
		{"", `let $a := <a k="x"><b/></a> return count($a/b[2]/@k)`, "0", ""},
		{d, `count(/r/s[3]/i/@n)`, "0", ""},
		// Positions and last() count per context node, across several.
		{d, `data(/r/s/i[1]/@n)`, "1.1 2.1 4.1", ""},
		{d, `data(/r/s/i[last()]/@n)`, "1.3 2.1 4.4", ""},
		{d, `data(/r/s/i[position() = last() - 1]/@n)`, "1.2 4.3", ""},
		{d, `data(/r/s/i[@k][2]/@n)`, "4.3", ""},
		{d, `data(/r/s/i[2][@k]/@n)`, "", ""},
		{d, `data(/r/s/i[@k][last()]/@n)`, "4.4", ""},
		// A reverse axis counts back from the context node.
		{d, `data(//i[@k = "b"]/ancestor::*[1]/@n)`, "4", ""},
		{d, `name(//i[@k = "b"]/ancestor::*[2])`, "r", ""},
		{d, `count(//i/ancestor::*[1])`, "3", ""},
		{d, `data(/r/s[4]/i[4]/preceding-sibling::i[1]/@n)`, "4.3", ""},
		// A predicate that raises on the third candidate raises.
		{d, `count(/r/s/i[if (position() = 3) then xs:integer("x") else true()])`, "", "FORG0001"},
		{d, `count(/r/s[if (@n = "3") then error() else true()])`, "", "FOER0000"},
		{d, `count(/r/s[if (@n = "3") then error() else true()][1])`, "", "FOER0000"},
		// A filter step inside a path, on a variable.
		{d, `let $x := /r/s return data($x[2]/i/@n)`, "2.1", ""},
		{d, `let $x := (<p><a>1</a></p>, <p><a>2</a><a>3</a></p>) return $x[2]/a`, "<a>2</a> <a>3</a>", ""},
		{d, `let $x := /r/s return (data($x[last()]/i[2]/@n), count($x))`, "4.2 4", ""},
		// A step result that mixes nodes and atomic values raises, a head
		// filter's included; one its predicates make all nodes does not.
		{d, `let $r := <r><a/></r> return count($r/(a, 1))`, "", "XPTY0018"},
		{d, `let $x := (<a/>, 1) return count($x/.)`, "", "XPTY0018"},
		{d, `let $r := <r><a/><b/></r> return count($r/(b, a, 1)[. instance of node()])`, "2", ""},
		// A standalone filter leaves the sequence it filters as it was.
		{d, `let $seq := (3, 1, 2) let $f := $seq[. > 1] return ($f, $seq)`, "3 2 3 1 2", ""},
		{d, `let $seq := /r/s let $f := $seq[@n > 1] return (count($f), data($seq/@n))`, "3 1 2 3 4", ""},
		{d, `let $seq := (3, 1, 2) let $f := $seq[. > 1][1] return ($f, $seq[2], $seq)`, "3 1 3 1 2", ""},
	}
	for i, tc := range cases {
		c := Case{Seed: int64(-2000 - i), Src: tc.src, Doc: tc.doc}
		if got := Eval(c, Matrix()[0]); got.Out != tc.want || got.Code != tc.code {
			t.Errorf("%s\n\tgot %q (code %q), want %q (code %q)", tc.src, got.Out, got.Code, tc.want, tc.code)
		}
		if d := Check(c, Matrix()); d != nil {
			t.Errorf("%v", d)
		}
	}
}
