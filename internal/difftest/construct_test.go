package difftest

import (
	"strings"
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

// constructDoc is the context document of the constructor matrix: two
// update targets, one with an attribute and a text child.
const constructDoc = `<r><i n="1">x</i><i n="2"/></r>`

// constructRow is one hand-answered row of the constructor matrix: a query
// (or, with update set, an update program over constructDoc) under one
// duplicate-attribute policy, and its output or its error code and
// position.
type constructRow struct {
	src    string
	policy xq.DupAttrPolicy
	update bool
	want   string
	code   string
	pos    string
}

// TestConstructorMatrix runs every constructor form — direct, computed and
// document element constructors, the four leaf constructors, direct
// comments and PIs, and update content through insert and replace — through
// every configuration, each answer worked out by hand. The content cases are
// the paper's T1/T3 rules: a leading attribute folds into the element, one
// after other content is XQTY0024, adjacent atomics of one enclosed
// expression space-join, a document node lands as its children, and
// adjacent text merges. The duplicate-attribute rows run under all four
// policies. Output, error code and error position must be the same in
// every configuration.
func TestConstructorMatrix(t *testing.T) {
	const (
		last   = xq.DupAttrLastWins
		first  = xq.DupAttrFirstWins
		galax  = xq.DupAttrGalaxBug
		strict = xq.DupAttrError
	)
	rows := []constructRow{
		// Direct element: a leading attribute folds; one after text or a
		// comment is XQTY0024.
		{src: `<e>{attribute a {"1"}, "t"}</e>`, want: `<e a="1">t</e>`},
		{src: `<e>t{attribute a {"1"}}</e>`, code: "XQTY0024", pos: "1:1"},
		{src: `<e><!--c-->{attribute a {"1"}}</e>`, code: "XQTY0024", pos: "1:1"},
		{src: `<e>{<b/>, attribute a {"1"}}</e>`, code: "XQTY0024", pos: "1:1"},
		// Adjacent atomics space-join within one enclosed expression only.
		{src: `<e>{1, 2}{3}</e>`, want: `<e>1 23</e>`},
		{src: `count(<e>{1, 2}{3}</e>/node())`, want: `1`},
		// A document node lands as its children.
		{src: `<e>{document {<b/>, "t"}}x</e>`, want: `<e><b/>tx</e>`},
		// Text merges: literal text, atomics and text nodes become one node;
		// an empty text node vanishes; a comment separates.
		{src: `count(<e>a{"b"}{text {"c"}}{text {""}}</e>/node())`, want: `1`},
		{src: `<e>a{"b"}{text {"c"}}</e>`, want: `<e>abc</e>`},
		{src: `count(<e>a<!--c-->b</e>/node())`, want: `3`},
		// A later entry's evaluation error beats an earlier entry's XQTY0024:
		// every entry is evaluated before any is landed.
		{src: `for $z in (0) return <e>t{attribute a {"1"}}{1 idiv $z}</e>`, code: "FOAR0001", pos: "1:48"},
		// Computed element.
		{src: `element e {attribute a {"1"}, "t", 1, 2}`, want: `<e a="1">t 1 2</e>`},
		{src: `element e {"t", attribute a {"1"}}`, code: "XQTY0024", pos: "1:1"},
		{src: `element {" e "} {()}`, want: `<e/>`},
		{src: `element {"p:e"} {}`, want: `<p:e/>`},
		{src: `element {("a", "b")} {}`, code: "XPTY0004", pos: "1:1"},
		// Names that no XML parser reads back are XQDY0074.
		{src: `element {"1a"} {}`, code: "XQDY0074", pos: "1:1"},
		{src: `element {"a/b"} {}`, code: "XQDY0074", pos: "1:1"},
		{src: `element {"a b"} {}`, code: "XQDY0074", pos: "1:1"},
		{src: `element {""} {}`, code: "XQDY0074", pos: "1:1"},
		{src: `<e>{attribute {"-x"} {"v"}}</e>`, code: "XQDY0074", pos: "1:5"},
		{src: `<e>{attribute {"x-1.y"} {"v"}}</e>`, want: `<e x-1.y="v"/>`},
		// Document constructor: no attribute content.
		{src: `document {<a/>, "t", 1}`, want: `<a/>t 1`},
		{src: `document {document {<a/>}, "t"}`, want: `<a/>t`},
		{src: `document {attribute a {"1"}}`, code: "XPTY0004", pos: "1:1"},
		// Leaf constructors: one string, atomized and space-joined.
		{src: `<e>{attribute a {1, "x", ()}}</e>`, want: `<e a="1 x"/>`},
		{src: `count(text {()})`, want: `0`},
		{src: `<e>{text {"a", 1}}</e>`, want: `<e>a 1</e>`},
		{src: `<e>{comment {"c", 1}}</e>`, want: `<e><!--c 1--></e>`},
		{src: `<e>{processing-instruction p {"d"}}</e>`, want: `<e><?p d?></e>`},
		{src: `<e><!--c--><?p d?></e>`, want: `<e><!--c--><?p d?></e>`},
		{src: `(<!--c-->, <?p d?>)`, want: `<!--c--> <?p d?>`},
		// Duplicate attributes, under each policy: against a direct
		// attribute, and among content attributes.
		{src: `<e a="0">{attribute a {"1"}}</e>`, policy: last, want: `<e a="1"/>`},
		{src: `<e a="0">{attribute a {"1"}}</e>`, policy: first, want: `<e a="0"/>`},
		{src: `<e a="0">{attribute a {"1"}}</e>`, policy: galax, want: `<e a="0" a="1"/>`},
		{src: `<e a="0">{attribute a {"1"}}</e>`, policy: strict, code: "XQDY0025", pos: "1:1"},
		{src: `element e {attribute a {"1"}, attribute b {"2"}, attribute a {"3"}}`, policy: last, want: `<e a="3" b="2"/>`},
		{src: `element e {attribute a {"1"}, attribute b {"2"}, attribute a {"3"}}`, policy: first, want: `<e a="1" b="2"/>`},
		{src: `element e {attribute a {"1"}, attribute b {"2"}, attribute a {"3"}}`, policy: galax, want: `<e a="1" b="2" a="3"/>`},
		{src: `element e {attribute a {"1"}, attribute b {"2"}, attribute a {"3"}}`, policy: strict, code: "XQDY0025", pos: "1:1"},
		{src: `count(<e>{attribute a {"1"}, attribute a {"2"}}</e>/@a)`, policy: galax, want: `2`},
		// Update content, by the same element-content rule: leading
		// attributes only, and only where the target takes them.
		{update: true, src: `insert (attribute a {"1"}, "t", 1, 2, <b/>) into /r/i[2]`,
			want: `<r><i n="1">x</i><i n="2" a="1">t 1 2<b/></i></r>`},
		{update: true, src: `insert ("a", text {"b"}, "c") into /r/i[2]`,
			want: `<r><i n="1">x</i><i n="2">abc</i></r>`},
		{update: true, src: `insert ("t", attribute a {"1"}) into /r/i[2]`, code: "XUTY0004", pos: "1:1"},
		{update: true, src: `insert attribute a {"1"} before /r/i[2]`, code: "XUTY0004", pos: "1:1"},
		// An into-insert that leaves two attributes of one name is XUDY0021
		// under the strict policy, counted after the snapshot's deletes;
		// the other policies let the inserted attribute replace.
		{update: true, src: `insert attribute n {"5"} into /r/i[2]`, policy: strict, code: "XUDY0021", pos: "1:1"},
		{update: true, src: `insert (attribute n {"1"}, attribute n {"2"}) into /r/i[1]`, policy: strict, code: "XUDY0021", pos: "1:1"},
		{update: true, src: `insert (attribute n {"1"}, attribute n {"2"}) into /r/i[1]`, policy: last,
			want: `<r><i n="2">x</i><i n="2"/></r>`},
		{update: true, src: `(delete /r/i[2]/@n; insert attribute n {"5"} into /r/i[2])`, policy: strict,
			want: `<r><i n="1">x</i><i n="5"/></r>`},
		{update: true, src: `(rename /r/i[1]/@n as "m"; insert attribute m {"7"} into /r/i[1])`, policy: last,
			want: `<r><i m="7">x</i><i n="2"/></r>`},
		{update: true, src: `(rename /r/i[1]/@n as "m"; insert attribute m {"7"} into /r/i[1])`, policy: strict,
			code: "XUDY0021", pos: "1:28"},
		{update: true, src: `replace /r/i[1] with (document {<d/>, "t"}, "u")`,
			want: `<r><d/>tu<i n="2"/></r>`},
		{update: true, src: `replace /r/i[1]/@n with attribute m {"9"}`,
			want: `<r><i m="9">x</i><i n="2"/></r>`},
		{update: true, src: `replace /r/i[1] with attribute m {"9"}`, code: "XUTY0004", pos: "1:1"},
		{update: true, src: `rename /r/i[1] as "1a"`, code: "XQDY0074", pos: "1:1"},
		{update: true, src: `rename /r/i[1] as "j"`, want: `<r><j n="1">x</j><i n="2"/></r>`},
		{update: true, src: `insert <x>{attribute a {"1"}, attribute a {"2"}}</x> into /r/i[2]`, policy: last,
			want: `<r><i n="1">x</i><i n="2"><x a="2"/></i></r>`},
		{update: true, src: `insert <x>{attribute a {"1"}, attribute a {"2"}}</x> into /r/i[2]`, policy: first,
			want: `<r><i n="1">x</i><i n="2"><x a="1"/></i></r>`},
		{update: true, src: `insert <x>{attribute a {"1"}, attribute a {"2"}}</x> into /r/i[2]`, policy: galax,
			want: `<r><i n="1">x</i><i n="2"><x a="1" a="2"/></i></r>`},
		{update: true, src: `insert <x>{attribute a {"1"}, attribute a {"2"}}</x> into /r/i[2]`, policy: strict,
			code: "XQDY0025", pos: "1:8"},
	}
	for i, tc := range rows {
		var base Outcome
		for j, cfg := range Matrix() {
			var got Outcome
			if tc.update {
				got = EvalUpdate(UpdateCase{Seed: int64(-7000 - i), Src: tc.src, Doc: constructDoc, RootMode: "frozen", Policy: tc.policy}, cfg, false)
			} else {
				got = Eval(Case{Seed: int64(-7000 - i), Src: tc.src, Doc: constructDoc, Policy: tc.policy}, cfg)
			}
			if got.Out != tc.want || got.Code != tc.code {
				t.Errorf("%s (policy %v) under %s\n\tgot %q (code %q, %s), want %q (code %q)",
					tc.src, tc.policy, cfg.Name, got.Out, got.Code, got.Err, tc.want, tc.code)
				break
			}
			if tc.code != "" && !strings.HasPrefix(got.Err, "xquery: "+tc.pos+": "+tc.code+":") {
				t.Errorf("%s under %s raised %q, want it at %s", tc.src, cfg.Name, got.Err, tc.pos)
				break
			}
			// The error text carries the position: it must not move.
			if j == 0 {
				base = got
			} else if got.Err != base.Err {
				t.Errorf("%s: %s raised %q, %s raised %q", tc.src, base.Config.Name, base.Err, cfg.Name, got.Err)
				break
			}
		}
	}
}

// TestConstructedListsAreOwned: two elements built from the same content
// share nothing a caller can mutate. Appending to one returned element, and
// to the copy of a content node inside it, leaves its sibling and the
// content itself as they were, in every configuration.
func TestConstructedListsAreOwned(t *testing.T) {
	const src = `let $s := (<c k="v"/>, "t") return (<a>{$s}</a>, <b>{$s}</b>, $s[1])`
	for _, cfg := range Matrix() {
		compile := xq.Compile
		if cfg.Cached {
			compile = xq.CompileCached
		}
		q, err := compile(src, cfg.options(xq.DupAttrLastWins)...)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		seq, err := q.Eval(nil, nil)
		if err != nil || len(seq) != 3 {
			t.Fatalf("%s: %d items, %v", cfg.Name, len(seq), err)
		}
		var nodes [3]*xq.Node
		for k, it := range seq {
			n, ok := xdm.IsNode(it)
			if !ok {
				t.Fatalf("%s: item %d is not a node", cfg.Name, k)
			}
			nodes[k] = n
		}
		a := nodes[0]
		a.AppendChild(xmltree.NewElement("x"))
		a.Children()[0].AppendChild(xmltree.NewElement("y"))
		a.Children()[0].SetAttr("k", "changed")
		if got, want := a.String(), `<a><c k="changed"><y/></c>t<x/></a>`; got != want {
			t.Errorf("%s: mutated element %s, want %s", cfg.Name, got, want)
		}
		if got, want := nodes[1].String(), `<b><c k="v"/>t</b>`; got != want {
			t.Errorf("%s: sibling became %s, want %s", cfg.Name, got, want)
		}
		if got, want := nodes[2].String(), `<c k="v"/>`; got != want {
			t.Errorf("%s: content became %s, want %s", cfg.Name, got, want)
		}
	}
}
