package ast_test

import (
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/parser"
)

// traverseCorpus reaches every expression node type, every optional child
// both present and absent, and every struct that nests children (Step,
// ForClause, LetClause, OrderSpec, TypeswitchCase, DirAttr).
var traverseCorpus = []string{
	`("s", 1, 1.5, 2.5e0, $v, ., (), 1 to 2, 1 + 2, -3)`,
	`/`,
	`//a[@k = 'v'][2]/b/(c | d)[e]/@f`,
	`$x[1][. = 2]`,
	`for $x at $i in (1, 2) let $y := $x where $y gt 1 stable order by $y descending, $i return ($x, $i)`,
	`let $y := 1 return $y`,
	`some $x in (1, 2), $y in $x satisfies $x = $y`,
	`if (1) then 2 else 3`,
	`typeswitch (1) case $v as xs:integer return $v case xs:string return 2 default $d return $d`,
	`concat("a", true(), count((1, 2)))`,
	`(1 instance of xs:integer, "4" castable as xs:integer, "4" cast as xs:integer?, (1, 2) treat as xs:integer+)`,
	`try { error("x") } catch ($c, $m) { ($c, $m) }`,
	`<el a="x{1}y" b="">{2}text<kid/><!-- c --><?pi d?></el>`,
	`(element e { 1 }, element { "n" } { }, attribute a { 1 }, attribute { "n" } { }, text { 1 }, comment { 1 }, processing-instruction p { 1 }, document { <a/> })`,
}

var exprType = reflect.TypeOf((*ast.Expr)(nil)).Elem()

// fieldChildren finds, by reflection, every non-nil value of static type
// Expr held by v — directly, in slices, or in nested struct values (Step,
// the FLWOR clauses, …) — in field order. Pointers are not followed: an
// expression's children are the Exprs its own struct holds.
func fieldChildren(v reflect.Value, out []ast.Expr) []ast.Expr {
	switch {
	case v.Type() == exprType:
		if !v.IsNil() {
			out = append(out, v.Interface().(ast.Expr))
		}
	case v.Kind() == reflect.Interface:
		if !v.IsNil() {
			out = fieldChildren(v.Elem(), out)
		}
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = fieldChildren(v.Field(i), out)
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = fieldChildren(v.Index(i), out)
		}
	}
	return out
}

func childrenByReflection(e ast.Expr) []ast.Expr {
	return fieldChildren(reflect.ValueOf(e).Elem(), nil)
}

func childrenByTraversal(e ast.Expr) []ast.Expr {
	var out []ast.Expr
	ast.Children(e, func(c ast.Expr) { out = append(out, c) })
	return out
}

func sameNodes(a, b []ast.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nodeTypesInSource lists the expression node types ast.go declares: the
// structs that embed Base.
func nodeTypesInSource(t *testing.T) []string {
	t.Helper()
	f, err := goparser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	goast.Inspect(f, func(n goast.Node) bool {
		ts, ok := n.(*goast.TypeSpec)
		if !ok {
			return true
		}
		if st, ok := ts.Type.(*goast.StructType); ok {
			for _, fld := range st.Fields.List {
				if id, ok := fld.Type.(*goast.Ident); ok && len(fld.Names) == 0 && id.Name == "Base" {
					names = append(names, ts.Name.Name)
				}
			}
		}
		return true
	})
	sort.Strings(names)
	return names
}

// TestTraversalMatchesStructs holds traverse.go to the struct definitions:
// for every node of a corpus that contains every expression type, Children
// reports exactly the Expr-typed fields, in field order, and MapChildren
// rebuilds every one of them and nothing else. A new node type or child
// field fails here, not in whichever pass first misses it.
func TestTraversalMatchesStructs(t *testing.T) {
	leaves := map[string]bool{"StringLit": true, "IntLit": true, "DecimalLit": true,
		"DoubleLit": true, "VarRef": true, "ContextItem": true, "EmptySeq": true,
		"DirComment": true, "DirPI": true}
	seen := map[string]bool{}
	var check func(e ast.Expr)
	check = func(e ast.Expr) {
		name := reflect.TypeOf(e).Elem().Name()
		seen[name] = true
		want := childrenByReflection(e)
		if got := childrenByTraversal(e); !sameNodes(got, want) {
			t.Errorf("%s %s: Children reports %d nodes, the struct holds %d (or in another order)",
				name, ast.Print(e), len(got), len(want))
		}

		same := ast.MapChildren(e, func(c ast.Expr) ast.Expr { return c })
		if ast.Print(same) != ast.Print(e) || !sameNodes(childrenByReflection(same), want) {
			t.Errorf("%s: identity MapChildren prints %s, want %s", name, ast.Print(same), ast.Print(e))
		}
		if (same == e) != leaves[name] {
			t.Errorf("%s: identity MapChildren returned the same node = %v, want %v", name, same == e, leaves[name])
		}
		// Replace every child by a numbered marker: the copy must hold
		// exactly the markers, in call order, and the original must not
		// have been written to.
		var markers, visited []ast.Expr
		marked := ast.MapChildren(e, func(c ast.Expr) ast.Expr {
			visited = append(visited, c)
			m := &ast.VarRef{Name: "m" + strconv.Itoa(len(markers))}
			markers = append(markers, m)
			return m
		})
		if !sameNodes(visited, want) || !sameNodes(childrenByReflection(marked), markers) {
			t.Errorf("%s %s: MapChildren rebuilt %s", name, ast.Print(e), ast.Print(marked))
		}
		if !sameNodes(childrenByReflection(e), want) {
			t.Errorf("%s: MapChildren wrote to its argument", name)
		}
		for _, c := range want {
			check(c)
		}
	}
	for _, src := range traverseCorpus {
		mod, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		check(mod.Body)
	}
	var got []string
	for name := range seen {
		got = append(got, name)
	}
	sort.Strings(got)
	if want := nodeTypesInSource(t); !reflect.DeepEqual(got, want) {
		t.Errorf("corpus reaches node types\n %v\nast.go declares\n %v", got, want)
	}
	if len(got) != 31 {
		t.Errorf("%d expression node types, want 31", len(got))
	}
}

func TestWalkOrderAndPruning(t *testing.T) {
	e, err := parser.ParseExpr(`try { f(1, (2, 3)) } catch { g(4) }`)
	if err != nil {
		t.Fatal(err)
	}
	var order string
	ast.Walk(e, func(x ast.Expr) bool {
		switch n := x.(type) {
		case *ast.IntLit:
			order += strconv.FormatInt(n.Value, 10)
		case *ast.SequenceExpr:
			return false // prune: 2 and 3 are not visited
		}
		return true
	})
	if order != "14" {
		t.Fatalf("visited literals %q, want source order 1 then 4 with the pruned sequence skipped", order)
	}
}

func TestWalkDoesNotAllocate(t *testing.T) {
	mod, err := parser.Parse(`(` + traverseCorpus[2] + `, ` + traverseCorpus[4] + `)`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	count := func(ast.Expr) bool { n++; return true }
	if allocs := testing.AllocsPerRun(50, func() { ast.Walk(mod.Body, count) }); allocs != 0 {
		t.Fatalf("Walk allocates %v times per run over %d nodes", allocs, n)
	}
}
