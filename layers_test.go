package lopsided_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lopsided/internal/xquery/funclib"
)

// moduleImports returns the module packages ("lopsided/…") that the non-test
// Go files in dir import, sorted.
func moduleImports(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	seen := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "lopsided/") {
				seen[path] = true
			}
		}
	}
	var out []string
	for path := range seen {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// TestImportLayers holds the bottom of the import graph in place: obs is a
// standard-library-only leaf, so every layer — the tree included — can count
// straight into its registry, and the tree imports nothing of the module but
// obs. (The counters once lived in three packages behind probe hooks because
// "the tree package cannot import obs"; there was never a cycle.) The same
// test holds the XQuery front end under the layers that evaluate.
func TestImportLayers(t *testing.T) {
	if got := moduleImports(t, "internal/obs"); len(got) != 0 {
		t.Errorf("internal/obs imports module packages %v; it must stay a stdlib-only leaf", got)
	}
	if got := moduleImports(t, "internal/xmltree"); len(got) != 1 || got[0] != "lopsided/internal/obs" {
		t.Errorf("internal/xmltree imports module packages %v; want only lopsided/internal/obs", got)
	}
	// Fault injection is a stdlib-only harness: its callers adapt it, it
	// wraps none of theirs.
	if got := moduleImports(t, "internal/faultinject"); len(got) != 0 {
		t.Errorf("internal/faultinject imports module packages %v; it must stay a stdlib-only leaf", got)
	}
	// The XQuery generator splits its output streams in Go; the paper's XSLT
	// splitter is checked against that split by test, not selected at run time.
	if got := moduleImports(t, "internal/docgen/xqgen"); slices.Contains(got, "lopsided/internal/xslt") {
		t.Errorf("internal/docgen/xqgen imports lopsided/internal/xslt; the XSLT splitter is a test oracle only")
	}
	// The XQuery front end sits under everything that evaluates: raw-mode
	// scanning of direct constructors may not grow a dependency on the
	// interpreter or the public API.
	// The data model — items, the occurrence and kind lattice, the atomic-type
	// table — and the function library stated in it stay leaves, so every
	// static pass can read both without a translation layer in between.
	allowed := map[string][]string{
		"internal/xquery/lexer":   {"lopsided/internal/xmltree", "lopsided/internal/xquery/ast"},
		"internal/xquery/parser":  {"lopsided/internal/xdm", "lopsided/internal/xquery/ast", "lopsided/internal/xquery/lexer"},
		"internal/xdm":            {"lopsided/internal/obs", "lopsided/internal/xmltree"},
		"internal/xquery/funclib": {"lopsided/internal/xdm", "lopsided/internal/xmltree"},
		// The optimizer plans from syntax and funclib rows; the shape analysis
		// reports static errors and annotates EXPLAIN, and does not steer it.
		"internal/xquery/optimizer": {"lopsided/internal/xdm", "lopsided/internal/xquery/ast", "lopsided/internal/xquery/funclib"},
	}
	for dir, want := range allowed {
		for _, got := range moduleImports(t, dir) {
			if !slices.Contains(want, got) {
				t.Errorf("%s imports %s; it may import only %v", dir, got, want)
			}
		}
	}
	// The evaluator starts from a parsed module: its callers parse, and
	// Program.Eval and Program.Transform are its only entry points.
	if got := moduleImports(t, "internal/xquery/interp"); slices.Contains(got, "lopsided/internal/xquery/parser") {
		t.Errorf("internal/xquery/interp imports lopsided/internal/xquery/parser; the evaluator takes a parsed module")
	}
}

// TestVocabularyDescribedOnce keeps the two vocabularies where they are
// described. An atomic type is a row of xdm's table: no other package spells
// an xs:/xdt: name (the differential query generator writes source text and is
// excepted). A built-in function is a row at its funclib register call: the
// passes over the AST read rows through funclib.Lookup and do not compare a
// call's name against a registered one — except to ask "is this that very
// function", which the optimizer and the stream classifier do of a few. An
// emitting call (fn:trace) is recognised by its row's Emits, not its name.
func TestVocabularyDescribedOnce(t *testing.T) {
	identity := []string{"true", "false", "concat", "count", "exists", "empty"}
	registered := map[string]bool{}
	for _, name := range funclib.Names() {
		if !slices.Contains(identity, name) {
			registered[name], registered["fn:"+name] = true, true
		}
	}
	byName := []string{"shapes", "project", "optimizer", "stream", "interp"}
	for _, root := range []string{"internal", "xq", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			inXdm := strings.HasPrefix(path, "internal/xdm/") || strings.HasPrefix(path, "internal/difftest/gen")
			reads := slices.Contains(byName, filepath.Base(filepath.Dir(path))) && strings.HasPrefix(path, "internal/xquery/")
			// builtin reports a string literal naming a registered function.
			builtin := func(e ast.Expr) bool {
				lit, ok := e.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return false
				}
				name, _ := strconv.Unquote(lit.Value)
				return registered[name]
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, _ := strconv.Unquote(n.Value); n.Kind == token.STRING && !inXdm &&
						(strings.HasPrefix(s, "xs:") || strings.HasPrefix(s, "xdt:")) {
						t.Errorf("%s: type name %s spelled outside internal/xdm", fset.Position(n.Pos()), n.Value)
					}
				case *ast.CaseClause:
					for _, e := range n.List {
						if reads && builtin(e) {
							t.Errorf("%s: case on built-in name %s; read its funclib row", fset.Position(e.Pos()), e.(*ast.BasicLit).Value)
						}
					}
				case *ast.BinaryExpr:
					if reads && (n.Op == token.EQL || n.Op == token.NEQ) && (builtin(n.X) || builtin(n.Y)) {
						t.Errorf("%s: comparison against a built-in name; read its funclib row", fset.Position(n.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
