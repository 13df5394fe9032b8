package lopsided_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
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
	// The XQuery front end sits under everything that evaluates: raw-mode
	// scanning of direct constructors may not grow a dependency on the
	// interpreter or the public API.
	allowed := map[string][]string{
		"internal/xquery/lexer":  {"lopsided/internal/xmltree", "lopsided/internal/xquery/ast"},
		"internal/xquery/parser": {"lopsided/internal/xdm", "lopsided/internal/xquery/ast", "lopsided/internal/xquery/lexer"},
	}
	for dir, want := range allowed {
		for _, got := range moduleImports(t, dir) {
			if !slices.Contains(want, got) {
				t.Errorf("%s imports %s; it may import only %v", dir, got, want)
			}
		}
	}
}
