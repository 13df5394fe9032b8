package difftest

import (
	"context"
	"strings"
	"testing"

	"lopsided/xq"
)

// keyedDoc has what a keyed lookup can get wrong: same-named elements nested
// inside each other (child and descendant probes must scope differently),
// one attribute value under two element names, values that are equal as
// numbers or booleans but not as strings, an empty value and a missing
// attribute. The <key> elements are where the queries take their keys from.
const keyedDoc = `<r>` +
	`<item k="a" n="1"><item k="a" n="2"><item k="b" n="3"/></item></item>` +
	`<item k="b" n="4"/>` +
	`<item k="03" n="5"/>` +
	`<item k="3" n="6"/>` +
	`<item k="true" n="7"/>` +
	`<item k="a" n="8"/>` +
	`<item n="9"/>` +
	`<item k="" n="10"/>` +
	`<other k="a" n="11"/>` +
	`<key k="a"/><key k="b"/>` +
	`</r>`

// TestKeyedJoinMatrix runs [@attr = key] steps whose key is not a literal
// through every configuration. O0 and the +noidx plans never fold the
// predicate, so the matrix is the oracle for the fold's run-time guard: a key
// that is one string is probed, every other key — empty, several items, a
// number, a boolean, an error — must come out as the predicate evaluated per
// candidate does. Each answer is also worked out by hand. Constructed
// elements are built under the Galax policy, the one that keeps both of two
// same-named attributes.
func TestKeyedJoinMatrix(t *testing.T) {
	const (
		ns     = `string-join(for $x in %s return string($x/@n), ",")`
		inT    = `let $t := <t>{/r/item}</t> return `
		dupInT = `let $t := <t>{element item { attribute k {"a"}, attribute k {"b"}, attribute n {"20"} }, /r/item[2]}</t> return `
	)
	n := func(path string) string { return strings.Replace(ns, "%s", path, 1) }
	cases := []struct{ src, want, code string }{
		// The key comes from a for variable: a join.
		{`string-join(for $i in /r/key return ` + n(`/r/item[@k = string($i/@k)]`) + `, ";")`, "1,8;4", ""},
		{`for $r in /r/key return count(/r/item[@k = string($r/@k)])`, "2 1", ""},
		// An untyped parameter of a user function.
		{`declare function local:f($d, $t) { $d/r/item[@k = $t] }; ` + n(`local:f(/, "a")`), "1,8", ""},
		{`declare function local:f($d, $t) { $d//item[@k = $t] }; ` + n(`local:f(/, "b")`), "3,4", ""},
		// A node key atomizes to its string value.
		{`for $i in /r/key return count(/r/item[@k = $i/@k])`, "2 1", ""},
		{`for $i in /r/key return count(/r/item[@k = $i/@k[. = "a"]])`, "2 0", ""},
		// The empty key matches nothing; the empty string is a value.
		{`for $i in /r/key[1] return count(/r/item[@k = $i/@nope])`, "0", ""},
		{`count(/r/item[@k = ()])`, "0", ""},
		{`for $s in string(/r/nope) return ` + n(`/r/item[@k = $s]`), "10", ""},
		// Two items: existential.
		{`for $i in /r/key[1] return ` + n(`/r/item[@k = ($i/@k, "b")]`), "1,4,8", ""},
		{`let $v := /r/key/@k return ` + n(`//item[@k = $v]`), "1,2,3,4,8", ""},
		// A number compares as a double: "03" and "3" both equal 3.
		{`for $v in (3) return ` + n(`/r/item[@k = $v]`), "5,6", ""},
		{`for $v in (3.0e0) return ` + n(`//item[@k = $v]`), "5,6", ""},
		// A boolean casts the attribute.
		{`for $v in (true()) return ` + n(`/r/item[@k = $v]`), "7", ""},
		{`for $v in (false()) return ` + n(`/r/item[@k = $v]`), "1,4,5,6,8,10", ""},
		// A key that raises: no candidates, no error; one candidate, that error.
		{`for $s in ("x") return count(/r/nope[@k = xs:integer($s)])`, "0", ""},
		{`for $z in (0) return count(/r/nope[@k = string(1 idiv $z)])`, "0", ""},
		{`for $s in ("x") return count(/r/other[@k = xs:integer($s)])`, "", "FORG0001"},
		{`for $z in (0) return count(/r/other[@k = string(1 idiv $z)])`, "", "FOAR0001"},
		{`for $z in (0) return count(//item[@k = string(1 idiv $z)])`, "", "FOAR0001"},
		{`count(/r/item[@k = error()])`, "", "FOER0000"},
		// A raised code that names a limit is still the program's error,
		// not a tripped budget.
		{`count(/r/nope[@k = error("LOPS0002", "not a budget")])`, "0", ""},
		{`count(/r/other[@k = error("LOPS0002", "not a budget")])`, "", "LOPS0002"},
		// …and inside try/catch the same.
		{`for $s in ("x") return try { count(/r/other[@k = xs:integer($s)]) } catch ($e) { "caught" }`, "caught", ""},
		// Keys that do not fold: trace, a user function, the focus.
		{`count(/r/item[@k = trace("key", "a")])`, "2", ""},
		{`declare function local:k() { "a" }; count(/r/item[@k = local:k()])`, "2", ""},
		{`declare function string($x) { "b" }; for $i in /r/key[1] return count(/r/item[@k = string($i/@k)])`, "1", ""},
		{`count(/r/item[@k = (for $x in /r/key[2] return string($x/@k))])`, "1", ""},
		{`count(/r/item[@k = item/@k])`, "1", ""},
		{`count(/r/item[@k = /r/key[2]/@k])`, "1", ""},
		{`count(/r/item[@n = position()])`, "1", ""},
		// A positional predicate after the fold counts among the matches.
		{`for $v in ("a") return data(/r/item[@k = $v][2]/@n)`, "8", ""},
		{`for $v in ("a") return data(/r/item[@k = $v][last()]/@n)`, "8", ""},
		{`for $v in ("a") return data(//item[@k = $v][2]/@n)`, "8", ""},
		{`for $v in ("a") return count(/r/item[@k = $v][@n = "8"])`, "1", ""},
		// The fused //item over nested items, from the root and from inside.
		{`for $v in ("a", "b") return count(//item[@k = $v])`, "3 2", ""},
		{`for $v in ("a") return ` + n(`//item[@k = $v]`), "1,2,8", ""},
		{`for $v in ("a", "b") return count(/r/item[1]//item[@k = $v])`, "1 1", ""},
		{`for $v in ("a") return ` + n(`/r/descendant::item[@k = $v]`), "1,2,8", ""},
		{`for $v in ("a") return count(/r/*[@k = $v])`, "4", ""},
		// The key on the left.
		{`for $v in ("b") return data(/r/item[$v = @k]/@n)`, "4", ""},
		{`for $i in /r/key return count(//item[string($i/@k) = @k])`, "3 2", ""},
		// The same steps over a constructed tree: a mutable parent over
		// copies of the document's items, never indexed.
		{inT + `for $v in ("a") return ` + n(`$t/item[@k = $v]`), "1,8", ""},
		{inT + `for $v in ("a", "b") return count($t//item[@k = $v])`, "3 2", ""},
		{inT + `for $i in /r/key return count($t/item[@k = $i/@k][1]/item)`, "1 0", ""},
		// Duplicate attributes: either value finds the element.
		{dupInT + `for $v in ("b", "a", "c") return count($t/item[@k = $v])`, "2 1 0", ""},
		{dupInT + `for $v in ("a") return data($t//item[@k = $v]/@n)`, "20", ""},
	}
	for i, tc := range cases {
		c := Case{Seed: int64(-1000 - i), Src: tc.src, Doc: keyedDoc, Policy: xq.DupAttrGalaxBug}
		if got := Eval(c, Matrix()[0]); got.Out != tc.want || got.Code != tc.code {
			t.Errorf("%s\n\tgot %q (code %q), want %q (code %q)", tc.src, got.Out, got.Code, tc.want, tc.code)
		}
		if d := Check(c, Matrix()); d != nil {
			t.Errorf("%v", d)
		}
	}
}

// TestKeyedJoinEmissions: a key the host can watch being evaluated — a
// fn:trace call, a user function, a FLWOR — is evaluated once per candidate
// under every plan, so the tracer sees the same events with the fold planned
// (O2) as without (O0), one per <item> child of <r>.
func TestKeyedJoinEmissions(t *testing.T) {
	for _, tc := range []struct {
		src  string
		kind xq.EventKind
	}{
		{`count(/r/item[@k = trace("key", "a")])`, xq.TraceHit},
		{`declare function local:k() { "a" }; count(/r/item[@k = local:k()])`, xq.FuncCall},
		{`count(/r/item[@k = (for $x in "a" return $x)])`, xq.ClauseIter},
	} {
		for _, lvl := range []xq.OptLevel{xq.O0, xq.O2} {
			q, err := xq.Compile(tc.src, xq.WithOptLevel(lvl))
			if err != nil {
				t.Fatalf("%s: %v", tc.src, err)
			}
			doc, err := contextDoc(Case{Doc: keyedDoc})
			if err != nil {
				t.Fatal(err)
			}
			var events xq.Collector
			out, err := q.EvalString(context.Background(), doc, xq.WithTracer(&events))
			if err != nil || out != "2" {
				t.Errorf("O%d %s = %q, %v; want 2", lvl, tc.src, out, err)
			}
			if got := len(events.OfKind(tc.kind)); got != 8 {
				t.Errorf("O%d %s: %d %v events, want 8", lvl, tc.src, got, tc.kind)
			}
		}
	}
}
