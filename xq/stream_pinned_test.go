package xq

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// streamVerdict returns the streaming section of EXPLAIN with its lines
// joined by " | ": the tier Mode() resolves, the SAX plan (Plan.String) or
// the classifier's decline reason, and the projection (Projection.String)
// or the analysis' bail reason.
func streamVerdict(t *testing.T, src string, lvl OptLevel) string {
	t.Helper()
	q, err := CompileStream(src, WithOptLevel(lvl))
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	plan := q.Explain()
	i := strings.Index(plan, "streaming: ")
	if i < 0 {
		t.Fatalf("%q: no streaming section in\n%s", src, plan)
	}
	lines := strings.Split(strings.TrimSpace(plan[i:]), "\n")
	for j := range lines {
		lines[j] = strings.TrimSpace(lines[j])
	}
	return strings.Join(lines, " | ")
}

// pinnedStreamVerdicts is what the two streaming analyses say about the raw
// AST (O0) and the optimized one (O2, where `//` is fused and attribute
// predicates are folded into access paths). The rows were captured from the
// commit before the classifier and the projection analysis stopped reading
// Step.Access and before both shared one path printer (PIN_PRINT=1 go test
// -run TestPinnedStreamVerdicts prints them); they must stay byte-identical
// (one row says where it deliberately is not).
// Every decline reason of the classifier and every bail of the projection
// pre-scan appears at least once.
var pinnedStreamVerdicts = []struct{ src, o0, o2 string }{
	{"count(//item)",
		"streaming: mode=full-stream | stream plan: count //item | projection: //item",
		"streaming: mode=full-stream | stream plan: count //item | projection: //item"},
	{"count(/site/people/person)",
		"streaming: mode=full-stream | stream plan: count /site/people/person | projection: /site /site/people /site/people/person",
		"streaming: mode=full-stream | stream plan: count /site/people/person | projection: /site /site/people /site/people/person"},
	{"count(//item[@featured = \"yes\"])",
		"streaming: mode=full-stream | stream plan: count //item[@featured='yes'] | projection: //item/@featured",
		"streaming: mode=full-stream | stream plan: count //item[@featured='yes'] | projection: //item/@featured"},
	{"count(//item[@k = 'v'][@j = 'w'])",
		"streaming: mode=full-stream | stream plan: count //item[@k='v'][@j='w'] | projection: //item/@k/@j",
		"streaming: mode=full-stream | stream plan: count //item[@k='v'][@j='w'] | projection: //item/@k/@j"},
	{"count(/r/a[@x = '1']//b['2' = @y]/c)",
		"streaming: mode=full-stream | stream plan: count /r/a[@x='1']//b[@y='2']/c | projection: /r /r/a/@x /r/a//b/@y /r/a//b/c",
		"streaming: mode=full-stream | stream plan: count /r/a[@x='1']//b[@y='2']/c | projection: /r /r/a/@x /r/a//b/@y /r/a//b/c"},
	{"count(//person/@id)",
		"streaming: mode=full-stream | stream plan: count //person/@id | projection: //person/@id",
		"streaming: mode=full-stream | stream plan: count //person/@id | projection: //person/@id"},
	{"count(//person/@*)",
		"streaming: mode=full-stream | stream plan: count //person/@* | projection: //person/@*",
		"streaming: mode=full-stream | stream plan: count //person/@* | projection: //person/@*"},
	{"exists(//item[@id = \"i3\"])",
		"streaming: mode=full-stream | stream plan: exists //item[@id='i3'] | projection: //item/@id",
		"streaming: mode=full-stream | stream plan: exists //item[@id='i3'] | projection: //item/@id"},
	{"fn:empty(//missing)",
		"streaming: mode=full-stream | stream plan: empty //missing | projection: //missing",
		"streaming: mode=full-stream | stream plan: empty //missing | projection: //missing"},
	{"//person/name",
		"streaming: mode=full-stream | stream plan: serialize //person/name | projection: //person //person/name#subtree",
		"streaming: mode=full-stream | stream plan: serialize //person/name | projection: //person //person/name#subtree"},
	{"/site/items/item",
		"streaming: mode=full-stream | stream plan: serialize /site/items/item | projection: /site /site/items /site/items/item#subtree",
		"streaming: mode=full-stream | stream plan: serialize /site/items/item | projection: /site /site/items /site/items/item#subtree"},
	{"//item/@id",
		"streaming: mode=full-stream | stream plan: serialize //item/@id | projection: //item/@id",
		"streaming: mode=full-stream | stream plan: serialize //item/@id | projection: //item/@id"},
	{"//item/@p:*",
		"streaming: mode=full-stream | stream plan: serialize //item/@p:* | projection: //item/@*",
		"streaming: mode=full-stream | stream plan: serialize //item/@p:* | projection: //item/@*"},
	{"count(//*)",
		"streaming: mode=full-stream | stream plan: count //* | projection: //*",
		"streaming: mode=full-stream | stream plan: count //* | projection: //*"},
	{"count(//p:*//*:q)",
		"streaming: mode=full-stream | stream plan: count //p:*//*:q | projection: //p:* //p:*//*:q",
		"streaming: mode=full-stream | stream plan: count //p:*//*:q | projection: //p:* //p:*//*:q"},
	{"//nested//name",
		"streaming: mode=full-stream | stream plan: serialize //nested//name | projection: //nested //nested//name#subtree",
		"streaming: mode=full-stream | stream plan: serialize //nested//name | projection: //nested //nested//name#subtree"},
	{"items/item/name",
		"streaming: mode=full-stream | stream plan: serialize /items/item/name | projection: /items /items/item /items/item/name#subtree",
		"streaming: mode=full-stream | stream plan: serialize /items/item/name | projection: /items /items/item /items/item/name#subtree"},
	{"count(/site/descendant::item[@k = 'v'])",
		"streaming: mode=full-stream | stream plan: count /site//item[@k='v'] | projection: /site /site//item/@k",
		"streaming: mode=full-stream | stream plan: count /site//item[@k='v'] | projection: /site /site//item/@k"},
	{"declare function local:f() { 1 }; count(//item)",
		"streaming: mode=projected | stream plan: none (prolog declares functions) | projection: //item",
		"streaming: mode=projected | stream plan: none (prolog declares functions) | projection: //item"},
	{"declare variable $x := 1; count(//item)",
		"streaming: mode=projected | stream plan: none (prolog declares variables) | projection: //item",
		"streaming: mode=projected | stream plan: none (prolog declares variables) | projection: //item"},
	{"count(//item) + 1",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //item",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //item"},
	{"sum(//price)",
		"streaming: mode=projected | stream plan: none (aggregate sum is not streamable) | projection: //price#subtree",
		"streaming: mode=projected | stream plan: none (aggregate sum is not streamable) | projection: //price#subtree"},
	{"count((//item, //x))",
		"streaming: mode=projected | stream plan: none (aggregate argument is not a path) | projection: //item //x",
		"streaming: mode=projected | stream plan: none (aggregate argument is not a path) | projection: //item //x"},
	{"/",
		"streaming: mode=materialize | stream plan: none (path has no element steps) | projection: everything needed",
		"streaming: mode=materialize | stream plan: none (path has no element steps) | projection: everything needed"},
	{"count($d/item)",
		"streaming: mode=projected | stream plan: none (filter step) | projection: (empty)",
		"streaming: mode=projected | stream plan: none (filter step) | projection: (empty)"},
	{"count(//item/text())",
		"streaming: mode=projected | stream plan: none (kind test text()) | projection: //item#subtree",
		"streaming: mode=projected | stream plan: none (kind test text()) | projection: //item#subtree"},
	{"count(//item/@id/x)",
		"streaming: mode=projected | stream plan: none (attribute step before the end of the path) | projection: //item/@id",
		"streaming: mode=projected | stream plan: none (attribute step before the end of the path) | projection: //item/@id"},
	{"count(//item/@id[. = '1'])",
		"streaming: mode=projected | stream plan: none (predicate on attribute step) | projection: //item/@id",
		"streaming: mode=projected | stream plan: none (predicate on attribute step) | projection: //item/@id"},
	{"count(//item/@k[. = 'v'])",
		"streaming: mode=projected | stream plan: none (predicate on attribute step) | projection: //item/@k",
		"streaming: mode=projected | stream plan: none (predicate on attribute step) | projection: //item/@k"},
	// Differs from the parent at O2, which fused `//@id` into descendant::id
	// (elements named id): full-stream, count //item//id, //item //item//id.
	{"count(//item//@id)",
		"streaming: mode=projected | stream plan: none (// immediately before an attribute step) | projection: //item //item//*/@id",
		"streaming: mode=projected | stream plan: none (// immediately before an attribute step) | projection: //item //item//*/@id"},
	{"count(//item/..)",
		"streaming: mode=materialize | stream plan: none (kind test node()) | projection: none (axis parent is not projectable)",
		"streaming: mode=materialize | stream plan: none (kind test node()) | projection: none (axis parent is not projectable)"},
	{"count(//item/self::item)",
		"streaming: mode=projected | stream plan: none (axis self) | projection: //item",
		"streaming: mode=projected | stream plan: none (axis self) | projection: //item"},
	{"//item[1]",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: //item#subtree",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: //item#subtree"},
	{"//item[price > 5]",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: //item#subtree //item/price#subtree",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: //item#subtree //item/price#subtree"},
	{"//item[@k = 'v'][2]",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: //item#subtree",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: //item#subtree"},
	{"count(//item[@*:k = 'v'])",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: //item/@*",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: //item/@*"},
	{"count(//item//node())",
		"streaming: mode=projected | stream plan: none (kind test node()) | projection: //item#subtree",
		"streaming: mode=projected | stream plan: none (kind test node()) | projection: //item#subtree"},
	{"count(/site/descendant-or-self::node())",
		"streaming: mode=projected | stream plan: none (kind test node()) | projection: /site#subtree",
		"streaming: mode=projected | stream plan: none (kind test node()) | projection: /site#subtree"},
	{".",
		"streaming: mode=materialize | stream plan: none (body is not a path or aggregate-of-path) | projection: everything needed",
		"streaming: mode=materialize | stream plan: none (body is not a path or aggregate-of-path) | projection: everything needed"},
	{"for $i in /site/item where $i/sold = \"y\" return string($i/name)",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: /site /site/item /site/item/sold#subtree /site/item/name#subtree",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: /site /site/item /site/item/sold#subtree /site/item/name#subtree"},
	{"for $i in /s/i order by $i/k return count($i/v)",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: /s /s/i /s/i/k#subtree /s/i/v",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: /s /s/i /s/i/k#subtree /s/i/v"},
	{"count(/a/b | /a/c)",
		"streaming: mode=projected | stream plan: none (aggregate argument is not a path) | projection: /a /a/b /a/c",
		"streaming: mode=projected | stream plan: none (aggregate argument is not a path) | projection: /a /a/b /a/c"},
	{"count(/site/item[price > 10])",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: /site /site/item /site/item/price#subtree",
		"streaming: mode=projected | stream plan: none (unstreamable predicate) | projection: /site /site/item /site/item/price#subtree"},
	{"string(//person[@featured = \"yes\"][1]/name)",
		"streaming: mode=projected | stream plan: none (aggregate string is not streamable) | projection: //person/@featured //person/name#subtree",
		"streaming: mode=projected | stream plan: none (aggregate string is not streamable) | projection: //person/@featured //person/name#subtree"},
	{"count(//item/descendant-or-self::item[@a]) + count(//x/self::y)",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //item/@a //item//item/@a //x",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //item/@a //item//item/@a //x"},
	{"(1 to count(//a), -count(//b), //c cast as xs:string, //d castable as xs:integer)",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a //b //c#subtree //d#subtree",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a //b //c#subtree //d#subtree"},
	{"<out a=\"{//x/@id}\">{//y}</out>",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //x/@id //y#subtree",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //x/@id //y#subtree"},
	{"(element e { //a }, element { //n } { //b }, attribute a { //c }, attribute { //m } { 1 }, text { //d }, comment { //e }, processing-instruction p { //f }, document { //g })",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a#subtree //n#subtree //b#subtree //c#subtree //m#subtree //d#subtree //e#subtree //f#subtree //g#subtree",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a#subtree //n#subtree //b#subtree //c#subtree //m#subtree //d#subtree //e#subtree //f#subtree //g#subtree"},
	{"typeswitch (//a) case $v as element() return $v/b default return //c",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a#subtree //a/b#subtree //c#subtree",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a#subtree //a/b#subtree //c#subtree"},
	{"try { //a/b } catch ($c, $m) { //d }",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a //a/b#subtree //d#subtree",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a //a/b#subtree //d#subtree"},
	{"some $x in //a satisfies $x/@k = 'v'",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a/@k",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a/@k"},
	{"if (//a) then //b instance of element()+ else (//c treat as text()*)",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a //b //c#subtree",
		"streaming: mode=projected | stream plan: none (body is not a path or aggregate-of-path) | projection: //a //b //c#subtree"},
	{"declare function local:f($x) { $x/price * 2 }; local:f(//item[1])",
		"streaming: mode=projected | stream plan: none (prolog declares functions) | projection: //item#subtree",
		"streaming: mode=projected | stream plan: none (prolog declares functions) | projection: //item#subtree"},
	{"sum(1 to 100)",
		"streaming: mode=projected | stream plan: none (aggregate sum is not streamable) | projection: (empty)",
		"streaming: mode=projected | stream plan: none (aggregate sum is not streamable) | projection: (empty)"},
	{"//item/..",
		"streaming: mode=materialize | stream plan: none (kind test node()) | projection: none (axis parent is not projectable)",
		"streaming: mode=materialize | stream plan: none (kind test node()) | projection: none (axis parent is not projectable)"},
	{"count(//item[ancestor::closed])",
		"streaming: mode=materialize | stream plan: none (unstreamable predicate) | projection: none (axis ancestor is not projectable)",
		"streaming: mode=materialize | stream plan: none (unstreamable predicate) | projection: none (axis ancestor is not projectable)"},
	{"//item/following-sibling::item",
		"streaming: mode=materialize | stream plan: none (axis following-sibling) | projection: none (axis following-sibling is not projectable)",
		"streaming: mode=materialize | stream plan: none (axis following-sibling) | projection: none (axis following-sibling is not projectable)"},
	{"declare function local:up($x) { $x/.. }; local:up(//item)",
		"streaming: mode=materialize | stream plan: none (prolog declares functions) | projection: none (axis parent is not projectable)",
		"streaming: mode=materialize | stream plan: none (prolog declares functions) | projection: none (axis parent is not projectable)"},
	{"declare function local:up($x) { root($x) }; local:up(//item)",
		"streaming: mode=materialize | stream plan: none (prolog declares functions) | projection: none (fn:root escapes the projection)",
		"streaming: mode=materialize | stream plan: none (prolog declares functions) | projection: none (fn:root escapes the projection)"},
	{"declare variable $r := fn:root(.); count($r)",
		"streaming: mode=materialize | stream plan: none (prolog declares variables) | projection: none (fn:root escapes the projection)",
		"streaming: mode=materialize | stream plan: none (prolog declares variables) | projection: none (fn:root escapes the projection)"},
	{"count(root(//item))",
		"streaming: mode=materialize | stream plan: none (aggregate argument is not a path) | projection: none (fn:root escapes the projection)",
		"streaming: mode=materialize | stream plan: none (aggregate argument is not a path) | projection: none (fn:root escapes the projection)"},
	{"(//a)/b",
		"streaming: mode=projected | stream plan: none (filter step) | projection: //a //a/b#subtree",
		"streaming: mode=projected | stream plan: none (filter step) | projection: //a //a/b#subtree"},
	{"//(a | b)",
		"streaming: mode=materialize | stream plan: none (filter step) | projection: none (filter step after //)",
		"streaming: mode=materialize | stream plan: none (filter step) | projection: none (filter step after //)"},
	{"count(nosuch(//a))",
		"streaming: mode=materialize | stream plan: none (aggregate argument is not a path) | projection: none (unknown function nosuch)",
		"streaming: mode=materialize | stream plan: none (aggregate argument is not a path) | projection: none (unknown function nosuch)"},
}

func TestPinnedStreamVerdicts(t *testing.T) {
	print := os.Getenv("PIN_PRINT") != ""
	for _, row := range pinnedStreamVerdicts {
		o0, o2 := streamVerdict(t, row.src, O0), streamVerdict(t, row.src, O2)
		if print {
			fmt.Printf("\t{%q,\n\t\t%q,\n\t\t%q},\n", row.src, o0, o2)
			continue
		}
		if o0 != row.o0 {
			t.Errorf("%q at O0:\n got %s\nwant %s", row.src, o0, row.o0)
		}
		if o2 != row.o2 {
			t.Errorf("%q at O2:\n got %s\nwant %s", row.src, o2, row.o2)
		}
	}
}
