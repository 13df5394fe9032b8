package xq_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lopsided/internal/docgen/xqgen"
	"lopsided/xq"
)

// workloadPlan renders what the optimizer decided for one program compiled
// with opts (the workloads use the defaults): its Stats, then every `access
// path` note and every call note of an invariant function in EXPLAIN, then
// EXPLAIN's `shape warnings:` block if there is one. A program the shape analysis rejects statically fails to compile, so
// a pinned row with no warnings says the analysis neither rejects nor warns
// of that workload query.
func workloadPlan(t *testing.T, src string, update bool, opts ...xq.Option) string {
	t.Helper()
	compile := xq.Compile
	if update {
		compile = xq.CompileUpdate
	}
	q, err := compile(src, opts...)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	s := q.Stats
	lines := []string{fmt.Sprintf("fold=%d lets=%d traces=%d ix=%d walk=%d pred=%d",
		s.FoldedConstants, s.EliminatedLets, s.ElidedTraces, s.IndexScans, s.TreeWalks, s.FoldedPredicates)}
	warnings := false
	for _, l := range strings.Split(q.Explain(), "\n") {
		switch {
		case l == "shape warnings:":
			warnings = true
			lines = append(lines, l)
		case warnings && strings.HasPrefix(l, "  "):
			lines = append(lines, strings.TrimSpace(l))
		case strings.Contains(l, " access path "), strings.Contains(l, "invariant: once per evaluation"):
			warnings = false
			lines = append(lines, strings.TrimSpace(l))
		default:
			warnings = false
		}
	}
	return strings.Join(lines, "\n")
}

// xqgenSource returns the docgen program a row without source text names.
func xqgenSource(name string) string {
	if name == "xqgen/update" {
		return xqgen.UpdateSource()
	}
	for i, src := range xqgen.PhaseSources() {
		if name == fmt.Sprintf("xqgen/phase%d", i+1) {
			return src
		}
	}
	return ""
}

// workloadPlans holds one row per query form the four benchmark workloads
// run, with representative literals: bench/gen.go's serve_hot point, scan
// and build queries, serve_churn's four cold templates and four transforms,
// stream_ladder's three tier queries, and docgen's xqgen programs (the five
// phases and the single-pass update, by name). The rows were captured from
// the commit before shapes stopped steering the optimizer (PIN_PRINT=1 go
// test -run TestWorkloadPlans ./xq prints them); one row says where it
// differs. A rent audit reads here which mechanism a workload exercises.
var workloadPlans = []struct {
	name   string
	update bool
	src    string
	plan   string
}{
	{"hot/point", false, `string(//item[@n = '300417']/title)`,
		`fold=0 lets=0 traces=0 ix=1 walk=2 pred=1
1:10 access path IndexScan descendant::item (fused // into descendant::item, folded [@n = '300417'])
1:30 access path TreeWalk child::title (child::title, no attribute predicate to probe)`},
	// Since content keys, [title = …] folds into the item step, which the
	// content section for title answers.
	{"hot/scan", false, `count(/collection/doc[@name = 'c3']/catalog/section/item[title = 'Item 300417'])`,
		`fold=0 lets=0 traces=0 ix=2 walk=5 pred=2
1:8 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:19 access path IndexScan child::doc (child name step, folded [@name = 'c3'])
1:37 access path TreeWalk child::catalog (child::catalog, no attribute predicate to probe)
1:45 access path TreeWalk child::section (child::section, no attribute predicate to probe)
1:53 access path IndexScan child::item (child name step, folded [title = 'Item 300417'])`},
	{"hot/build", false, `for $s in /collection/doc[@name = 'c2']/catalog/section[@n = '5'] return <hit doc="c2" section="{$s/@n}" items="{count($s/item)}">{for $i in $s/item where $i/@k != 'k07' return <row n="{$i/@n}">{string($i/title)}</row>}</hit>`,
		`fold=0 lets=0 traces=0 ix=2 walk=10 pred=2
1:12 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:23 access path IndexScan child::doc (child name step, folded [@name = 'c2'])
1:41 access path TreeWalk child::catalog (child::catalog, no attribute predicate to probe)
1:49 access path IndexScan child::section (child name step, folded [@n = '5'])
1:101 access path TreeWalk attribute::n (attribute axis not indexed)
1:123 access path TreeWalk child::item (child::item, no attribute predicate to probe)
1:145 access path TreeWalk child::item (child::item, no attribute predicate to probe)
1:159 access path TreeWalk attribute::k (attribute axis not indexed)
1:190 access path TreeWalk attribute::n (attribute axis not indexed)
1:206 access path TreeWalk child::title (child::title, no attribute predicate to probe)`},
	{"churn/cold0", false, `let $lo := 2001 let $hits := for $b in /collection/doc/lib/book where number($b/@year) >= $lo order by string($b/title) descending return $b return concat(count($hits), "|", string-join(for $h in $hits[position() <= 3] return string($h/title), ","), "|", sum(for $h in $hits return number($h/@year)))`,
		`fold=0 lets=0 traces=0 ix=0 walk=8 pred=0
1:41 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:52 access path TreeWalk child::doc (child::doc, no attribute predicate to probe)
1:56 access path TreeWalk child::lib (child::lib, no attribute predicate to probe)
1:60 access path TreeWalk child::book (child::book, no attribute predicate to probe)
1:81 access path TreeWalk attribute::year (attribute axis not indexed)
1:114 access path TreeWalk child::title (child::title, no attribute predicate to probe)
1:237 access path TreeWalk child::title (child::title, no attribute predicate to probe)
1:293 access path TreeWalk attribute::year (attribute axis not indexed)`},
	{"churn/cold1", false, `string-join(for $d in /collection/doc let $n := count($d/lib/book[@year = "2001"]) where $n > 0 order by string($d/@name) return concat($d/@name, "=", $n), ";")`,
		`fold=0 lets=0 traces=0 ix=1 walk=6 pred=1
1:24 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:35 access path TreeWalk child::doc (child::doc, no attribute predicate to probe)
1:58 access path TreeWalk child::lib (child::lib, no attribute predicate to probe)
1:62 access path IndexScan child::book (child name step, folded [@year = '2001'])
1:116 access path TreeWalk attribute::name (attribute axis not indexed)
1:140 access path TreeWalk attribute::name (attribute axis not indexed)`},
	{"churn/cold2", false, `let $ys := distinct-values(/collection//book[@year >= 2001]/@year) return if (empty($ys)) then "none" else concat(count($ys), ":", min(for $y in $ys return xs:integer($y)), ":", max(for $y in $ys return xs:integer($y)))`,
		`fold=0 lets=0 traces=0 ix=0 walk=5 pred=0
1:29 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:39 access path TreeWalk descendant-or-self:: (wildcard or kind test)
1:41 access path TreeWalk child::book (child::book, no attribute predicate to probe)
1:46 access path TreeWalk attribute::year (attribute axis not indexed)
1:61 access path TreeWalk attribute::year (attribute axis not indexed)`},
	{"churn/cold3", false, `declare function local:decade($y) { floor(number($y) div 10) * 10 }; if (some $b in /collection//book satisfies $b/title = "Book 2-17") then <r n="{count(/collection//book[@year > 2001])}">{for $b in /collection/doc[@name = "lib2"]/lib/book[position() <= 3] return <t d="{local:decade($b/@year)}">{string($b/title)}</t>}</r> else ()`,
		`fold=0 lets=0 traces=0 ix=2 walk=12 pred=1
1:86 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:98 access path IndexScan descendant::book (fused // into descendant::book)
1:116 access path TreeWalk child::title (child::title, no attribute predicate to probe)
1:156 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:166 access path TreeWalk descendant-or-self:: (wildcard or kind test)
1:168 access path TreeWalk child::book (child::book, no attribute predicate to probe)
1:173 access path TreeWalk attribute::year (attribute axis not indexed)
1:202 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:213 access path IndexScan child::doc (child name step, folded [@name = 'lib2'])
1:233 access path TreeWalk child::lib (child::lib, no attribute predicate to probe)
1:237 access path TreeWalk child::book (child::book, no attribute predicate to probe)
1:289 access path TreeWalk attribute::year (attribute axis not indexed)
1:309 access path TreeWalk child::title (child::title, no attribute predicate to probe)`},
	{"churn/audit", true, `for $b in /collection//book[@year = '2001'] return insert attribute audited { "1" } into $b`,
		`fold=0 lets=0 traces=0 ix=1 walk=2 pred=1
1:12 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:24 access path IndexScan descendant::book (fused // into descendant::book, folded [@year = '2001'])`},
	{"churn/delete", true, `delete /collection//book[@year = '2001']`,
		`fold=0 lets=0 traces=0 ix=1 walk=2 pred=1
1:9 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:21 access path IndexScan descendant::book (fused // into descendant::book, folded [@year = '2001'])`},
	{"churn/rename", true, `for $b in /collection//book[@year = '2001'] return rename $b as "tome"`,
		`fold=0 lets=0 traces=0 ix=1 walk=2 pred=1
1:12 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:24 access path IndexScan descendant::book (fused // into descendant::book, folded [@year = '2001'])`},
	{"churn/replace", true, `for $t in /collection//book[@year = '2001']/title return replace $t with <title>Revised 2001</title>`,
		`fold=0 lets=0 traces=0 ix=1 walk=3 pred=1
1:12 access path TreeWalk child::collection (child::collection, no attribute predicate to probe)
1:24 access path IndexScan descendant::book (fused // into descendant::book, folded [@year = '2001'])
1:45 access path TreeWalk child::title (child::title, no attribute predicate to probe)`},
	{"ladder/full-stream", false, `count(//item[@k = 'k05'])`,
		`fold=0 lets=0 traces=0 ix=1 walk=1 pred=1
1:9 access path IndexScan descendant::item (fused // into descendant::item, folded [@k = 'k05'])`},
	{"ladder/projected", false, `sum(//item/@n)`,
		`fold=0 lets=0 traces=0 ix=1 walk=1 pred=0
1:7 access path IndexScan descendant::item (fused // into descendant::item)
1:12 access path TreeWalk attribute::n (attribute axis not indexed)`},
	// Differs from the parent in the fusion reason's wording only: the
	// parent fused on a shape proof, this rule on the predicate's syntax.
	{"ladder/materialize", false, `count(//item[../blurb])`,
		`fold=0 lets=0 traces=0 ix=1 walk=2 pred=0
1:9 access path IndexScan descendant::item (fused // into descendant::item, predicate is an axis path)
1:14 access path TreeWalk parent:: (wildcard or kind test)
1:17 access path TreeWalk child::blurb (child::blurb, no attribute predicate to probe)`},
	{"xqgen/phase1", false, ``,
		`fold=0 lets=0 traces=0 ix=15 walk=131 pred=15
9:62 access path TreeWalk attribute::id (attribute axis not indexed)
15:56 access path TreeWalk attribute::gen-error (attribute axis not indexed)
21:31 access path TreeWalk attribute::gen-error (attribute axis not indexed)
25:38 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
25:48 access path TreeWalk child::metamodel (child::metamodel, no attribute predicate to probe)
30:16 call local:mm/0 -> user function (frame 0, invariant: once per evaluation)
30:27 access path IndexScan child::node-type (child name step, folded [@name = $t], key evaluated once per step)
33:29 access path TreeWalk attribute::parent (attribute axis not indexed)
34:48 access path TreeWalk attribute::parent (attribute axis not indexed)
40:16 call local:mm/0 -> user function (frame 0, invariant: once per evaluation)
40:27 access path IndexScan child::relation-type (child name step, folded [@name = $t], key evaluated once per step)
43:29 access path TreeWalk attribute::parent (attribute axis not indexed)
44:47 access path TreeWalk attribute::parent (attribute axis not indexed)
48:10 access path IndexScan child::property (child name step, folded [@name = 'label'])
48:52 access path IndexScan child::property (child name step, folded [@name = 'label'])
49:15 access path IndexScan child::property (child name step, folded [@name = 'name'])
49:56 access path IndexScan child::property (child name step, folded [@name = 'name'])
50:18 access path TreeWalk attribute::id (attribute axis not indexed)
54:20 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
54:30 access path TreeWalk child::node (child::node, no attribute predicate to probe)
55:41 access path TreeWalk attribute::type (attribute axis not indexed)
63:41 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
63:51 access path IndexScan child::relation (child name step, folded [@target = (call string (path (filter $focus) (attribute::id)))], key evaluated once per step)
63:84 access path TreeWalk attribute::id (attribute axis not indexed)
64:26 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
64:36 access path IndexScan child::relation (child name step, folded [@source = (call string (path (filter $focus) (attribute::id)))], key evaluated once per step)
64:69 access path TreeWalk attribute::id (attribute axis not indexed)
65:40 access path TreeWalk attribute::type (attribute axis not indexed)
67:46 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
67:56 access path IndexScan child::node (child name step, folded [@id = (call string (path (filter $r) (attribute::source)))], key evaluated once per step)
67:77 access path TreeWalk attribute::source (attribute axis not indexed)
68:31 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
68:41 access path IndexScan child::node (child name step, folded [@id = (call string (path (filter $r) (attribute::target)))], key evaluated once per step)
68:62 access path TreeWalk attribute::target (attribute axis not indexed)
69:64 access path TreeWalk attribute::type (attribute axis not indexed)
97:37 access path TreeWalk attribute::relation (attribute axis not indexed)
98:33 access path TreeWalk attribute::direction (attribute axis not indexed)
99:33 access path TreeWalk attribute::target-type (attribute axis not indexed)
110:48 access path TreeWalk attribute::type (attribute axis not indexed)
110:66 access path TreeWalk attribute::type (attribute axis not indexed)
113:24 access path TreeWalk attribute::value (attribute axis not indexed)
115:31 access path IndexScan child::property (child name step, folded [@name = (call string (path (filter $s) (attribute::name)))], key evaluated once per step)
115:58 access path TreeWalk attribute::name (attribute axis not indexed)
115:88 access path TreeWalk attribute::value (attribute axis not indexed)
118:31 access path IndexScan child::property (child name step, folded [@name = (call string (path (filter $s) (attribute::name)))], key evaluated once per step)
118:58 access path TreeWalk attribute::name (attribute axis not indexed)
122:47 access path TreeWalk attribute::id (attribute axis not indexed)
122:63 access path TreeWalk attribute::id (attribute axis not indexed)
125:61 access path TreeWalk attribute::id (attribute axis not indexed)
127:49 access path TreeWalk attribute::n (attribute axis not indexed)
136:19 access path TreeWalk child::start (child::start, no attribute predicate to probe)
136:28 access path TreeWalk attribute::focus (attribute axis not indexed)
140:24 access path TreeWalk child::start (child::start, no attribute predicate to probe)
140:33 access path TreeWalk attribute::id (attribute axis not indexed)
141:17 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
141:27 access path IndexScan child::node (child name step, folded [@id = (call string (path (filter $q) (child::start [1]) (attribute::id)))], key evaluated once per step)
141:48 access path TreeWalk child::start (child::start, no attribute predicate to probe)
141:57 access path TreeWalk attribute::id (attribute axis not indexed)
142:24 access path TreeWalk child::start (child::start, no attribute predicate to probe)
142:33 access path TreeWalk attribute::type (attribute axis not indexed)
143:40 access path TreeWalk child::start (child::start, no attribute predicate to probe)
143:49 access path TreeWalk attribute::type (attribute axis not indexed)
147:31 access path TreeWalk child::* (wildcard or kind test)
147:37 access path TreeWalk self::start (self axis not indexed)
153:10 access path IndexScan child::property (child name step, folded [@name = $name], key evaluated once per step)
160:18 access path TreeWalk attribute::type (attribute axis not indexed)
162:46 access path TreeWalk attribute::type (attribute axis not indexed)
162:64 access path TreeWalk attribute::type (attribute axis not indexed)
164:18 access path TreeWalk attribute::name (attribute axis not indexed)
166:46 access path TreeWalk attribute::name (attribute axis not indexed)
168:18 access path TreeWalk attribute::name (attribute axis not indexed)
169:23 access path TreeWalk attribute::value (attribute axis not indexed)
172:46 access path TreeWalk attribute::name (attribute axis not indexed)
173:55 access path TreeWalk attribute::value (attribute axis not indexed)
175:18 access path TreeWalk attribute::nodes (attribute axis not indexed)
177:42 access path TreeWalk attribute::nodes (attribute axis not indexed)
180:39 access path TreeWalk child::* (wildcard or kind test)
226:19 access path TreeWalk attribute::name (attribute axis not indexed)
227:28 access path TreeWalk attribute::name (attribute axis not indexed)
233:33 access path TreeWalk child:: (wildcard or kind test)
237:21 access path TreeWalk attribute::* (wildcard or kind test)
243:17 access path TreeWalk child::query (child::query, no attribute predicate to probe)
243:50 access path TreeWalk child::query (child::query, no attribute predicate to probe)
244:22 access path TreeWalk attribute::nodes (attribute axis not indexed)
244:59 access path TreeWalk attribute::nodes (attribute axis not indexed)
256:55 access path TreeWalk attribute::id (attribute axis not indexed)
257:28 access path TreeWalk child:: (wildcard or kind test)
257:39 access path TreeWalk self::query (self axis not indexed)
265:16 access path TreeWalk child::test (child::test, no attribute predicate to probe)
266:21 access path TreeWalk child::then (child::then, no attribute predicate to probe)
268:38 access path TreeWalk child::test (child::test, no attribute predicate to probe)
268:46 access path TreeWalk child::* (wildcard or kind test)
271:45 access path TreeWalk child::then (child::then, no attribute predicate to probe)
271:53 access path TreeWalk child:: (wildcard or kind test)
272:26 access path TreeWalk child::else (child::else, no attribute predicate to probe)
272:55 access path TreeWalk child::else (child::else, no attribute predicate to probe)
272:63 access path TreeWalk child:: (wildcard or kind test)
279:53 access path TreeWalk attribute::id (attribute axis not indexed)
285:16 access path TreeWalk attribute::name (attribute axis not indexed)
288:44 access path TreeWalk attribute::name (attribute axis not indexed)
291:24 access path TreeWalk attribute::required (attribute axis not indexed)
292:55 access path TreeWalk attribute::id (attribute axis not indexed)
293:42 access path TreeWalk attribute::name (attribute axis not indexed)
294:70 access path TreeWalk attribute::id (attribute axis not indexed)
295:50 access path TreeWalk attribute::name (attribute axis not indexed)
300:16 access path TreeWalk attribute::name (attribute axis not indexed)
303:44 access path TreeWalk attribute::name (attribute axis not indexed)
306:67 access path TreeWalk attribute::id (attribute axis not indexed)
307:47 access path TreeWalk attribute::name (attribute axis not indexed)
308:28 access path TreeWalk child:: (wildcard or kind test)
313:18 access path TreeWalk child:: (wildcard or kind test)
317:39 access path TreeWalk child:: (wildcard or kind test)
328:17 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
328:27 access path IndexScan child::relation (child name step, folded [@source = (call string (path (filter $r) (attribute::id)))], key evaluated once per step)
328:56 access path TreeWalk attribute::id (attribute axis not indexed)
329:36 access path TreeWalk attribute::target (attribute axis not indexed)
329:56 access path TreeWalk attribute::id (attribute axis not indexed)
330:64 access path TreeWalk attribute::type (attribute axis not indexed)
336:16 access path TreeWalk attribute::rows (attribute axis not indexed)
337:21 access path TreeWalk attribute::cols (attribute axis not indexed)
338:21 access path TreeWalk attribute::relation (attribute axis not indexed)
340:41 access path TreeWalk attribute::rows (attribute axis not indexed)
344:45 access path TreeWalk attribute::cols (attribute axis not indexed)
348:42 access path TreeWalk attribute::corner (attribute axis not indexed)
348:67 access path TreeWalk attribute::corner (attribute axis not indexed)
349:40 access path TreeWalk attribute::mark (attribute axis not indexed)
349:63 access path TreeWalk attribute::mark (attribute axis not indexed)
350:35 access path TreeWalk attribute::relation (attribute axis not indexed)
365:16 access path TreeWalk attribute::marker (attribute axis not indexed)
367:38 access path TreeWalk child:: (wildcard or kind test)
370:59 access path TreeWalk attribute::marker (attribute axis not indexed)
375:24 access path TreeWalk child::template (child::template, no attribute predicate to probe)
379:38 access path TreeWalk child:: (wildcard or kind test)`},
	{"xqgen/phase2", false, ``,
		`fold=0 lets=0 traces=0 ix=7 walk=28 pred=6
4:38 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
4:48 access path TreeWalk child::metamodel (child::metamodel, no attribute predicate to probe)
9:16 call local:mm/0 -> user function (frame 0, invariant: once per evaluation)
9:27 access path IndexScan child::node-type (child name step, folded [@name = $t], key evaluated once per step)
12:29 access path TreeWalk attribute::parent (attribute axis not indexed)
13:48 access path TreeWalk attribute::parent (attribute axis not indexed)
19:16 call local:mm/0 -> user function (frame 0, invariant: once per evaluation)
19:27 access path IndexScan child::relation-type (child name step, folded [@name = $t], key evaluated once per step)
22:29 access path TreeWalk attribute::parent (attribute axis not indexed)
23:47 access path TreeWalk attribute::parent (attribute axis not indexed)
27:10 access path IndexScan child::property (child name step, folded [@name = 'label'])
27:52 access path IndexScan child::property (child name step, folded [@name = 'label'])
28:15 access path IndexScan child::property (child name step, folded [@name = 'name'])
28:56 access path IndexScan child::property (child name step, folded [@name = 'name'])
29:18 access path TreeWalk attribute::id (attribute axis not indexed)
33:20 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
33:30 access path TreeWalk child::node (child::node, no attribute predicate to probe)
34:41 access path TreeWalk attribute::type (attribute axis not indexed)
40:39 access path IndexScan descendant::VISITED (fused // into descendant::VISITED)
40:64 access path TreeWalk attribute::node-id (attribute axis not indexed)
41:36 access path TreeWalk attribute::types (attribute axis not indexed)
43:22 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
43:32 access path TreeWalk child::node (child::node, no attribute predicate to probe)
44:73 access path TreeWalk attribute::type (attribute axis not indexed)
45:22 access path TreeWalk attribute::id (attribute axis not indexed)
47:73 access path TreeWalk attribute::id (attribute axis not indexed)
51:36 access path TreeWalk attribute::type (attribute axis not indexed)
51:83 access path TreeWalk attribute::id (attribute axis not indexed)
60:21 access path TreeWalk attribute::* (wildcard or kind test)
61:21 access path TreeWalk child:: (wildcard or kind test)
66:13 access path TreeWalk child::GEN-ROOT (child::GEN-ROOT, no attribute predicate to probe)`},
	{"xqgen/phase3", false, ``,
		`fold=0 lets=0 traces=0 ix=1 walk=9 pred=1
3:11 access path TreeWalk descendant-or-self:: (wildcard or kind test)
3:13 access path IndexScan child::h2 (child name step, folded [@class = 'section-heading'])
3:50 access path TreeWalk ancestor::INTERNAL-DATA (ancestor axis not indexed)
8:53 access path TreeWalk attribute::class (attribute axis not indexed)
11:21 access path TreeWalk attribute::* (wildcard or kind test)
13:21 access path TreeWalk child:: (wildcard or kind test)
22:21 access path TreeWalk attribute::* (wildcard or kind test)
23:21 access path TreeWalk child:: (wildcard or kind test)
28:13 access path TreeWalk child::GEN-ROOT (child::GEN-ROOT, no attribute predicate to probe)`},
	{"xqgen/phase4", false, ``,
		`fold=2 lets=0 traces=0 ix=2 walk=11 pred=0
3:13 access path IndexScan descendant::REPLACEMENT (fused // into descendant::REPLACEMENT)
10:41 access path TreeWalk attribute::marker (attribute axis not indexed)
10:61 access path TreeWalk attribute::marker (attribute axis not indexed)
11:22 access path TreeWalk attribute::marker (attribute axis not indexed)
20:21 access path TreeWalk attribute::* (wildcard or kind test)
21:21 access path TreeWalk child:: (wildcard or kind test)
27:30 access path TreeWalk attribute::marker (attribute axis not indexed)
27:53 access path TreeWalk child:: (wildcard or kind test)
58:21 access path TreeWalk attribute::* (wildcard or kind test)
59:21 access path TreeWalk child:: (wildcard or kind test)
64:13 access path IndexScan descendant::REPLACEMENT (fused // into descendant::REPLACEMENT)
64:33 access path TreeWalk child::GEN-ROOT (child::GEN-ROOT, no attribute predicate to probe)
64:59 access path TreeWalk child::GEN-ROOT (child::GEN-ROOT, no attribute predicate to probe)`},
	{"xqgen/phase5", false, ``,
		`fold=0 lets=0 traces=0 ix=1 walk=5 pred=0
6:21 access path TreeWalk attribute::* (wildcard or kind test)
7:21 access path TreeWalk child:: (wildcard or kind test)
13:26 access path TreeWalk child::GEN-ROOT (child::GEN-ROOT, no attribute predicate to probe)
13:35 access path TreeWalk child:: (wildcard or kind test)
14:27 access path IndexScan descendant::INTERNAL-DATA (fused // into descendant::INTERNAL-DATA)
14:41 access path TreeWalk child::PROBLEM (child::PROBLEM, no attribute predicate to probe)`},
	{"xqgen/update", true, ``,
		`fold=2 lets=0 traces=0 ix=10 walk=41 pred=7
4:38 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
4:48 access path TreeWalk child::metamodel (child::metamodel, no attribute predicate to probe)
9:16 call local:mm/0 -> user function (frame 0, invariant: once per evaluation)
9:27 access path IndexScan child::node-type (child name step, folded [@name = $t], key evaluated once per step)
12:29 access path TreeWalk attribute::parent (attribute axis not indexed)
13:48 access path TreeWalk attribute::parent (attribute axis not indexed)
19:16 call local:mm/0 -> user function (frame 0, invariant: once per evaluation)
19:27 access path IndexScan child::relation-type (child name step, folded [@name = $t], key evaluated once per step)
22:29 access path TreeWalk attribute::parent (attribute axis not indexed)
23:47 access path TreeWalk attribute::parent (attribute axis not indexed)
27:10 access path IndexScan child::property (child name step, folded [@name = 'label'])
27:52 access path IndexScan child::property (child name step, folded [@name = 'label'])
28:15 access path IndexScan child::property (child name step, folded [@name = 'name'])
28:56 access path IndexScan child::property (child name step, folded [@name = 'name'])
29:18 access path TreeWalk attribute::id (attribute axis not indexed)
33:20 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
33:30 access path TreeWalk child::node (child::node, no attribute predicate to probe)
34:41 access path TreeWalk attribute::type (attribute axis not indexed)
39:30 access path IndexScan child::h2 (child name step, folded [@class = 'section-heading'])
39:67 access path TreeWalk ancestor::INTERNAL-DATA (ancestor axis not indexed)
40:30 access path IndexScan descendant::REPLACEMENT (fused // into descendant::REPLACEMENT)
43:42 access path TreeWalk attribute::marker (attribute axis not indexed)
43:62 access path TreeWalk attribute::marker (attribute axis not indexed)
44:20 access path TreeWalk attribute::marker (attribute axis not indexed)
48:39 access path IndexScan descendant::VISITED (fused // into descendant::VISITED)
48:64 access path TreeWalk attribute::node-id (attribute axis not indexed)
49:36 access path TreeWalk attribute::types (attribute axis not indexed)
51:22 access path TreeWalk child::awb-model (child::awb-model, no attribute predicate to probe)
51:32 access path TreeWalk child::node (child::node, no attribute predicate to probe)
52:73 access path TreeWalk attribute::type (attribute axis not indexed)
53:22 access path TreeWalk attribute::id (attribute axis not indexed)
55:73 access path TreeWalk attribute::id (attribute axis not indexed)
59:36 access path TreeWalk attribute::type (attribute axis not indexed)
59:83 access path TreeWalk attribute::id (attribute axis not indexed)
68:21 access path TreeWalk attribute::* (wildcard or kind test)
69:21 access path TreeWalk child:: (wildcard or kind test)
75:21 access path TreeWalk attribute::marker (attribute axis not indexed)
75:44 access path TreeWalk child:: (wildcard or kind test)
106:13 access path TreeWalk child::table-of-omissions (child::table-of-omissions, no attribute predicate to probe)
106:38 access path TreeWalk ancestor::INTERNAL-DATA (ancestor axis not indexed)
111:19 access path TreeWalk attribute::id (attribute axis not indexed)
115:13 access path TreeWalk child::toc-here (child::toc-here, no attribute predicate to probe)
115:28 access path TreeWalk ancestor::INTERNAL-DATA (ancestor axis not indexed)
123:13 access path TreeWalk child:: (wildcard or kind test)
123:26 access path TreeWalk ancestor::INTERNAL-DATA (ancestor axis not indexed)
128:10 access path IndexScan descendant::INTERNAL-DATA (fused // into descendant::INTERNAL-DATA)`},
}

func TestWorkloadPlans(t *testing.T) {
	print := os.Getenv("PIN_PRINT") != ""
	for _, row := range workloadPlans {
		src := row.src
		if src == "" {
			src = xqgenSource(row.name)
		}
		got := workloadPlan(t, src, row.update)
		if print {
			fmt.Printf("\t{%q, %v, %#q,\n\t\t`%s`},\n", row.name, row.update, row.src, got)
			continue
		}
		if got != row.plan {
			t.Errorf("%s:\n got %s\nwant %s", row.name, got, row.plan)
		}
	}
}
