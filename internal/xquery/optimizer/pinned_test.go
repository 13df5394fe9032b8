package optimizer

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/parser"
)

// pinnedModule renders everything Optimize may rewrite — prolog variable
// values, function bodies, the main body — plus the elided-trace list, in
// source order.
func pinnedModule(mod *ast.Module) string {
	var b strings.Builder
	for _, v := range mod.Vars {
		fmt.Fprintf(&b, "var $%s = %s; ", v.Name, ast.Print(v.Val))
	}
	for _, f := range mod.Functions {
		fmt.Fprintf(&b, "fn %s = %s; ", f.Name, ast.Print(f.Body))
	}
	b.WriteString(ast.Print(mod.Body))
	for _, et := range mod.ElidedTraces {
		fmt.Fprintf(&b, " elided %d:%d(%s)", et.P.Line, et.P.Col, strings.Join(et.Values, ","))
	}
	return b.String()
}

func pinnedStats(s Stats) string {
	return fmt.Sprintf("fold=%d lets=%d traces=%d ix=%d walk=%d pred=%d",
		s.FoldedConstants, s.EliminatedLets, s.ElidedTraces, s.IndexScans,
		s.TreeWalks, s.FoldedPredicates)
}

// pinnedRewrites is the optimizer's output — ast.Print of the module and the
// Stats — at O1 and O2 for queries covering every binder, every fold, each
// `//` fusion and each refusal. The rows were captured from the commit
// before the traversal moved into package ast and before predicate folding
// became an annotation (PIN_PRINT=1 go test -run TestPinnedRewrites prints
// them); rows that differ from that commit say so: a folded [@attr = 'lit']
// predicate, which the old planner removed from the step, now prints;
// elided traces are listed in source order; and `//` fuses only with a
// child step. The shape analysis' two counters (proven-total lets, widened
// predicates) left the row format with the analysis' place in the optimizer.
// galax selects the Galax-era TraceIsEffectful=false configuration.
var pinnedRewrites = []struct {
	src    string
	galax  bool
	o1, o2 string
}{
	// Folds.
	{"1 + 2", false,
		"3 | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"3 | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"-3", false,
		"-3 | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"-3 | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"- - (2 + 3)", false,
		"(+u 5) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(+u 5) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"1 div 0", false,
		"(div 1 0) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(div 1 0) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"if (true()) then 1 + 1 else \"n\"", false,
		"2 | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0",
		"2 | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"if (1 lt 2) then \"y\" else \"n\"", false,
		"\"y\" | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0",
		"\"y\" | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"concat(\"a\", \"b\", \"c\")", false,
		"\"abc\" | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"\"abc\" | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"concat(\"a\")", false,
		"(call concat \"a\") | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(call concat \"a\") | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"declare function local:true() { 0 }; if (1 = 1) then 1 else 2", false,
		"fn local:true = 0; 1 | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0",
		"fn local:true = 0; 1 | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0"},
	// Dead lets, with and without trace.
	{"let $used := 1 let $dead := (2, 3, 4) let $alsodead := \"x\" return $used", false,
		"(flwor (let $used := 1) (let $dead := (seq 2 3 4)) (let $alsodead := \"x\") (return $used)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $used := 1) (return $used)) | fold=0 lets=2 traces=0 ix=0 walk=0 pred=0"},
	{"let $a := 1 let $b := 2 return 42", false,
		"(flwor (let $a := 1) (let $b := 2) (return 42)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"42 | fold=0 lets=2 traces=0 ix=0 walk=0 pred=0"},
	{"let $a := 1 where 2 gt 1 return \"kept\"", false,
		"(flwor (let $a := 1) (where (call true)) (return \"kept\")) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $a := 1) (where (call true)) (return \"kept\")) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"let $a := trace(\"a\", 1) let $b := trace(\"b\", 2) order by 1 return 0", true,
		"(flwor (let $a := (call trace \"a\" 1)) (let $b := (call trace \"b\" 2)) (order 1) (return 0)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $b := (call trace \"b\" 2)) (order 1) (return 0)) elided 1:11(a,1) | fold=0 lets=1 traces=1 ix=0 walk=0 pred=0"},
	{"let $x := 2 + 3 let $dummy := trace(\"x=\", $x) let $y := $x * 10 return $y", true,
		"(flwor (let $x := 5) (let $dummy := (call trace \"x=\" $x)) (let $y := (* $x 10)) (return $y)) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $x := 5) (let $y := (* $x 10)) (return $y)) elided 1:31(x=,…) | fold=1 lets=1 traces=1 ix=0 walk=0 pred=0"},
	{"let $x := 2 + 3 let $dummy := trace(\"x=\", $x) let $y := $x * 10 return $y", false,
		"(flwor (let $x := 5) (let $dummy := (call trace \"x=\" $x)) (let $y := (* $x 10)) (return $y)) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $x := 5) (let $dummy := (call trace \"x=\" $x)) (let $y := (* $x 10)) (return $y)) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"let $dead := 1 idiv 0 return 2", false,
		"(flwor (let $dead := (idiv 1 0)) (return 2)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $dead := (idiv 1 0)) (return 2)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"let $dead := $nowhere return 1", false,
		"(flwor (let $dead := $nowhere) (return 1)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $dead := $nowhere) (return 1)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0"},
	// Differs from the parent, where the shape analysis proved the cast total
	// at O2: only the syntactic whitelist drops a let.
	{"let $dead := \"4\" castable as xs:integer return 2", false,
		"(flwor (let $dead := (castable \"4\" xs:integer)) (return 2)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $dead := (castable \"4\" xs:integer)) (return 2)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"let $x := 1 return for $x in (2,3) return $x", false,
		"(flwor (let $x := 1) (return (flwor (for $x in (seq 2 3)) (return $x)))) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (let $x := 1) (return (flwor (for $x in (seq 2 3)) (return $x)))) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0"},
	// Binders: scope decides whether a dead let's variable reference is safe.
	{"for $x at $i in (30, 10, 20) let $d := ($x, $i) where $x gt 5 + 5 order by $x descending return $i", false,
		"(flwor (for $x at $i in (seq 30 10 20)) (let $d := (seq $x $i)) (where (vc:gt $x 10)) (order $x desc) (return $i)) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(flwor (for $x at $i in (seq 30 10 20)) (where (vc:gt $x 10)) (order $x desc) (return $i)) | fold=1 lets=1 traces=0 ix=0 walk=0 pred=0"},
	{"some $x in (1,2,3), $y in ($x, 4) satisfies (let $d := ($x, $y) return $y gt 1 + 1)", false,
		"(some ($x in (seq 1 2 3)) ($y in (seq $x 4)) satisfies (flwor (let $d := (seq $x $y)) (return (vc:gt $y 2)))) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(some ($x in (seq 1 2 3)) ($y in (seq $x 4)) satisfies (vc:gt $y 2)) | fold=1 lets=1 traces=0 ix=0 walk=0 pred=0"},
	{"every $x in (1 to 4) satisfies $x lt 2 + 9", false,
		"(every ($x in (to 1 4)) satisfies (vc:lt $x 11)) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(every ($x in (to 1 4)) satisfies (vc:lt $x 11)) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"typeswitch (1 + 1) case $v as xs:integer return (let $d := $v return \"i\") case xs:string return 1 + 1 default $w return (let $d := $w return \"d\")", false,
		"(typeswitch 2 (case xs:integer (flwor (let $d := $v) (return \"i\"))) (case xs:string 2) (default (flwor (let $d := $w) (return \"d\")))) | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(typeswitch 2 (case xs:integer \"i\") (case xs:string 2) (default \"d\")) | fold=2 lets=2 traces=0 ix=0 walk=0 pred=0"},
	{"typeswitch (1) case xs:integer return (let $d := $v return \"i\") default return 0", false,
		"(typeswitch 1 (case xs:integer (flwor (let $d := $v) (return \"i\"))) (default 0)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(typeswitch 1 (case xs:integer (flwor (let $d := $v) (return \"i\"))) (default 0)) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"try { let $d := $m return 1 + 1 } catch ($c, $m) { let $d := ($c, $m) return 2 + 2 }", false,
		"(try (flwor (let $d := $m) (return 2)) catch $c $m (flwor (let $d := (seq $c $m)) (return 4))) | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(try (flwor (let $d := $m) (return 2)) catch $c $m 4) | fold=2 lets=1 traces=0 ix=0 walk=0 pred=0"},
	// Differs from the parent: elided traces now in source order.
	{"try { let $d := trace(\"a\", 1) return 1 } catch ($c, $m) { let $e := trace(\"b\", 2) return 2 }", true,
		"(try (flwor (let $d := (call trace \"a\" 1)) (return 1)) catch $c $m (flwor (let $e := (call trace \"b\" 2)) (return 2))) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(try 1 catch $c $m 2) elided 1:17(a,1) elided 1:69(b,2) | fold=0 lets=2 traces=2 ix=0 walk=0 pred=0"},
	// Differs from the parent: elided traces now in source order.
	{"typeswitch (let $d := trace(\"op\", 0) return 1) case xs:integer return (let $e := trace(\"case\", 1) return 1) default return (let $f := trace(\"def\", 2) return 2)", true,
		"(typeswitch (flwor (let $d := (call trace \"op\" 0)) (return 1)) (case xs:integer (flwor (let $e := (call trace \"case\" 1)) (return 1))) (default (flwor (let $f := (call trace \"def\" 2)) (return 2)))) | fold=0 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(typeswitch 1 (case xs:integer 1) (default 2)) elided 1:23(op,0) elided 1:82(case,1) elided 1:135(def,2) | fold=0 lets=3 traces=3 ix=0 walk=0 pred=0"},
	// Structural nodes with folds inside.
	{"(1 + 1, 2 to 1 + 2, (1 + 1) instance of xs:integer, (1, 1 + 1) treat as xs:integer+, \"4\" cast as xs:integer, \"x\" castable as xs:double)", false,
		"(seq 2 (to 2 3) (instance-of 2 xs:integer) (treat (seq 1 2) xs:integer+) (cast \"4\" xs:integer) (castable \"x\" xs:double)) | fold=4 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(seq 2 (to 2 3) (instance-of 2 xs:integer) (treat (seq 1 2) xs:integer+) (cast \"4\" xs:integer) (castable \"x\" xs:double)) | fold=4 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"<el a=\"{1 + 1}\" b=\"x{concat(\"y\", \"z\")}\">{2 + 3}<kid/><!-- c --><?pi d?></el>", false,
		"(elem el (@a 2) (@b \"x\" \"yz\") 5 (elem kid) (comment \" c \") (pi pi \"d\")) | fold=3 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(elem el (@a 2) (@b \"x\" \"yz\") 5 (elem kid) (comment \" c \") (pi pi \"d\")) | fold=3 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"(element e { attribute a { 1 + 1 }, text { concat(\"a\",\"b\") } }, element { concat(\"n\", \"m\") } { }, attribute { concat(\"a\", \"b\") } { 1 }, document { <a>{1 + 1}</a> }, comment { concat(\"a\", \"b\") }, processing-instruction pi { 1 + 1 })", false,
		"(seq (celem e (seq (cattr a 2) (ctext \"ab\"))) (celem \"nm\" ()) (cattr \"ab\" 1) (cdoc (elem a 2)) (ccomment \"ab\") (cpi pi 2)) | fold=7 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(seq (celem e (seq (cattr a 2) (ctext \"ab\"))) (celem \"nm\" ()) (cattr \"ab\" 1) (cdoc (elem a 2)) (ccomment \"ab\") (cpi pi 2)) | fold=7 lets=0 traces=0 ix=0 walk=0 pred=0"},
	{"declare variable $v := 2 + 3; declare variable $e external; declare function local:f($x) { let $d := $x return $x + (1 + 1) }; local:f($v)", false,
		"var $v = 5; var $e = (); fn local:f = (flwor (let $d := $x) (return (+ $x 2))); (call local:f $v) | fold=2 lets=0 traces=0 ix=0 walk=0 pred=0",
		"var $v = 5; var $e = (); fn local:f = (+ $x 2); (call local:f $v) | fold=2 lets=1 traces=0 ix=0 walk=0 pred=0"},
	// Access paths: each fusion and each refusal.
	{"//item", false,
		"(path / (descendant::item)) | fold=0 lets=0 traces=0 ix=1 walk=0 pred=0",
		"(path / (descendant::item)) | fold=0 lets=0 traces=0 ix=1 walk=0 pred=0"},
	{"/r//item", false,
		"(path / (child::r) (descendant::item)) | fold=0 lets=0 traces=0 ix=1 walk=1 pred=0",
		"(path / (child::r) (descendant::item)) | fold=0 lets=0 traces=0 ix=1 walk=1 pred=0"},
	// Differs from the parent: folded predicate now printed.
	{"//item[@k = 'v']", false,
		"(path / (descendant::item [(gc:= (path (attribute::k)) \"v\")])) | fold=0 lets=0 traces=0 ix=1 walk=1 pred=1",
		"(path / (descendant::item [(gc:= (path (attribute::k)) \"v\")])) | fold=0 lets=0 traces=0 ix=1 walk=1 pred=1"},
	// Differs from the parent: folded predicate now printed.
	{"/r/item['v' = @k]", false,
		"(path / (child::r) (child::item [(gc:= \"v\" (path (attribute::k)))])) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=1",
		"(path / (child::r) (child::item [(gc:= \"v\" (path (attribute::k)))])) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=1"},
	// Differs from the parent: folded predicate now printed.
	{"//item[@k = 'k7'][2]/@k", false,
		"(path // (child::item [(gc:= (path (attribute::k)) \"k7\")] [2]) (attribute::k)) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=1",
		"(path // (child::item [(gc:= (path (attribute::k)) \"k7\")] [2]) (attribute::k)) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=1"},
	// Differs from the parent: folded predicate now printed.
	{"/r/descendant::item[@k = 'v'][1]", false,
		"(path / (child::r) (descendant::item [(gc:= (path (attribute::k)) \"v\")] [1])) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=1",
		"(path / (child::r) (descendant::item [(gc:= (path (attribute::k)) \"v\")] [1])) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=1"},
	{"/r/descendant::item[1][@k = 'v']", false,
		"(path / (child::r) (descendant::item [1] [(gc:= (path (attribute::k)) \"v\")])) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=0",
		"(path / (child::r) (descendant::item [1] [(gc:= (path (attribute::k)) \"v\")])) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=0"},
	// Differs from the parent: folded predicate now printed.
	{"//item[@k = concat('a','b')]", false,
		"(path / (descendant::item [(gc:= (path (attribute::k)) \"ab\")])) | fold=1 lets=0 traces=0 ix=1 walk=1 pred=1",
		"(path / (descendant::item [(gc:= (path (attribute::k)) \"ab\")])) | fold=1 lets=0 traces=0 ix=1 walk=1 pred=1"},
	{"//item[@k]", false,
		"(path / (descendant::item [(path (attribute::k))])) | fold=0 lets=0 traces=0 ix=1 walk=1 pred=0",
		"(path / (descendant::item [(path (attribute::k))])) | fold=0 lets=0 traces=0 ix=1 walk=1 pred=0"},
	// Differs from the parent, where the shape analysis proved the predicate
	// non-positional: only an axis-path predicate fuses.
	{"//item[contains(., 'v')]", false,
		"(path // (child::item [(call contains . \"v\")])) | fold=0 lets=0 traces=0 ix=0 walk=1 pred=0",
		"(path // (child::item [(call contains . \"v\")])) | fold=0 lets=0 traces=0 ix=0 walk=1 pred=0"},
	{"//item[2]", false,
		"(path // (child::item [2])) | fold=0 lets=0 traces=0 ix=0 walk=1 pred=0",
		"(path // (child::item [2])) | fold=0 lets=0 traces=0 ix=0 walk=1 pred=0"},
	{"//item[position() lt 2]", false,
		"(path // (child::item [(vc:lt (call position) 2)])) | fold=0 lets=0 traces=0 ix=0 walk=1 pred=0",
		"(path // (child::item [(vc:lt (call position) 2)])) | fold=0 lets=0 traces=0 ix=0 walk=1 pred=0"},
	{"//item[@k eq 'v']", false,
		"(path // (child::item [(vc:eq (path (attribute::k)) \"v\")])) | fold=0 lets=0 traces=0 ix=0 walk=2 pred=0",
		"(path // (child::item [(vc:eq (path (attribute::k)) \"v\")])) | fold=0 lets=0 traces=0 ix=0 walk=2 pred=0"},
	{"//item[@k = 5]", false,
		"(path // (child::item [(gc:= (path (attribute::k)) 5)])) | fold=0 lets=0 traces=0 ix=0 walk=2 pred=0",
		"(path // (child::item [(gc:= (path (attribute::k)) 5)])) | fold=0 lets=0 traces=0 ix=0 walk=2 pred=0"},
	{"//*[@k = 'v']", false,
		"(path // (child::* [(gc:= (path (attribute::k)) \"v\")])) | fold=0 lets=0 traces=0 ix=0 walk=2 pred=0",
		"(path // (child::* [(gc:= (path (attribute::k)) \"v\")])) | fold=0 lets=0 traces=0 ix=0 walk=2 pred=0"},
	// Differs from the parent: folded predicate now printed.
	{"//item[@k = 'v'][@j = 'w']", false,
		"(path // (child::item [(gc:= (path (attribute::k)) \"v\")] [(gc:= (path (attribute::j)) \"w\")])) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=1",
		"(path // (child::item [(gc:= (path (attribute::k)) \"v\")] [(gc:= (path (attribute::j)) \"w\")])) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=1"},
	{"//item[@*:k = 'v']", false,
		"(path // (child::item [(gc:= (path (attribute::*:k)) \"v\")])) | fold=0 lets=0 traces=0 ix=0 walk=2 pred=0",
		"(path // (child::item [(gc:= (path (attribute::*:k)) \"v\")])) | fold=0 lets=0 traces=0 ix=0 walk=2 pred=0"},
	// Differs from the parent: folded predicate now printed.
	{"a//b[@k = 'v']//text()", false,
		"(path (child::a) (descendant::b [(gc:= (path (attribute::k)) \"v\")]) (descendant-or-self::node()) (child::text())) | fold=0 lets=0 traces=0 ix=1 walk=4 pred=1",
		"(path (child::a) (descendant::b [(gc:= (path (attribute::k)) \"v\")]) (descendant-or-self::node()) (child::text())) | fold=0 lets=0 traces=0 ix=1 walk=4 pred=1"},
	{"//a/descendant-or-self::node()[1]/b", false,
		"(path / (descendant::a) (descendant-or-self::node() [1]) (child::b)) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=0",
		"(path / (descendant::a) (descendant-or-self::node() [1]) (child::b)) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=0"},
	// Differs from the parent: folded predicate now printed.
	{"$d/child::item[@k = 'v']/../following-sibling::x", false,
		"(path (filter $d) (child::item [(gc:= (path (attribute::k)) \"v\")]) (parent::node()) (following-sibling::x)) | fold=0 lets=0 traces=0 ix=1 walk=3 pred=1",
		"(path (filter $d) (child::item [(gc:= (path (attribute::k)) \"v\")]) (parent::node()) (following-sibling::x)) | fold=0 lets=0 traces=0 ix=1 walk=3 pred=1"},
	// Differs from the parent, which fused any axis after `//` into descendant::name.
	{"//item//@id", false,
		"(path / (descendant::item) (descendant-or-self::node()) (attribute::id)) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=0",
		"(path / (descendant::item) (descendant-or-self::node()) (attribute::id)) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=0"},
	// Differs from the parent, which fused any axis after `//` into descendant::name.
	{"//item//self::item", false,
		"(path / (descendant::item) (descendant-or-self::node()) (self::item)) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=0",
		"(path / (descendant::item) (descendant-or-self::node()) (self::item)) | fold=0 lets=0 traces=0 ix=1 walk=2 pred=0"},
	{"(1 to 10)[. mod (1 + 1) = 0][last()]", false,
		"(path (filter (to 1 10) [(gc:= (mod . 2) 0)] [(call last)])) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0",
		"(path (filter (to 1 10) [(gc:= (mod . 2) 0)] [(call last)])) | fold=1 lets=0 traces=0 ix=0 walk=0 pred=0"},
}

func TestPinnedRewrites(t *testing.T) {
	print := os.Getenv("PIN_PRINT") != ""
	run := func(src string, galax bool, lvl Level) string {
		mod, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		st := Optimize(mod, Options{Level: lvl, TraceIsEffectful: !galax})
		return pinnedModule(mod) + " | " + pinnedStats(st)
	}
	for _, row := range pinnedRewrites {
		o1, o2 := run(row.src, row.galax, O1), run(row.src, row.galax, O2)
		if print {
			fmt.Printf("\t{%q, %v,\n\t\t%q,\n\t\t%q},\n", row.src, row.galax, o1, o2)
			continue
		}
		if o1 != row.o1 {
			t.Errorf("%q at O1:\n got %s\nwant %s", row.src, o1, row.o1)
		}
		if o2 != row.o2 {
			t.Errorf("%q at O2:\n got %s\nwant %s", row.src, o2, row.o2)
		}
	}
}
