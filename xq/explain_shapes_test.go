package xq_test

// Golden coverage for EXPLAIN's shape annotations across the optimizer
// levels and both compilation paths. The golden files freeze the full dump —
// per-node `::{occ type facts}` annotations and the result-shape line — so
// any change to the inference rules or the annotation format shows up as a
// reviewable diff. The cached plan must
// explain identically to the fresh one: the cache may never change what the
// compiler decided.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lopsided/xq"
)

var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestExplainShapesGolden(t *testing.T) {
	// One query touching every annotation surface: prolog function and
	// variable, FLWOR, path with predicate, arithmetic, comparison, cast,
	// and a dead let the shape analysis proves total, which the optimizer
	// keeps because only its syntactic whitelist drops a let.
	src := `declare function local:grade($n as xs:integer) { if ($n ge 2) then "hi" else "lo" };
declare variable $floor := 2;
let $dead := "3" cast as xs:string
for $b in /lib/book[@year]
let $c := count($b/title)
where $c ge $floor
return (local:grade($c), $c + 1)`

	for _, lvl := range []xq.OptLevel{xq.O0, xq.O1, xq.O2} {
		name := [...]string{"O0", "O1", "O2"}[int(lvl)]
		t.Run(name, func(t *testing.T) {
			fresh, err := xq.Compile(src, xq.WithOptLevel(lvl))
			if err != nil {
				t.Fatal(err)
			}
			got := fresh.Explain()
			if !strings.Contains(got, "::{") {
				t.Fatalf("%s: Explain lacks shape annotations:\n%s", name, got)
			}
			if !strings.Contains(got, "shapes: result ") {
				t.Fatalf("%s: Explain lacks the result shape line:\n%s", name, got)
			}

			golden := filepath.Join("testdata", "explain_shapes_"+name+".golden")
			if updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s: explain changed.\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}

			cached, err := xq.CompileCached(src, xq.WithOptLevel(lvl))
			if err != nil {
				t.Fatal(err)
			}
			if cachedGot := cached.Explain(); cachedGot != got {
				t.Errorf("%s: cached plan explains differently from fresh.\n--- cached ---\n%s--- fresh ---\n%s",
					name, cachedGot, got)
			}
		})
	}
}

// TestExplainAnnotatesEveryBodyNode enforces the acceptance criterion
// directly: every plan node the body dump prints carries a shape
// annotation. The S-expression printer emits `(head ...)` groups for every
// composite node and the annotation hook appends `::{` to each annotated
// one, so unannotated composites would show as `) ` without `::`.
func TestExplainAnnotatesEveryBodyNode(t *testing.T) {
	q, err := xq.Compile(`let $x := 1 + 2 return (if ($x lt 2) then $x else -$x, "s" cast as xs:string)`,
		xq.WithOptLevel(xq.O0))
	if err != nil {
		t.Fatal(err)
	}
	exp := q.Explain()
	i := strings.Index(exp, "body:\n")
	if i < 0 {
		t.Fatalf("no body section:\n%s", exp)
	}
	body := exp[i+len("body:\n"):]
	// Each closing paren ends one composite expression; it must be followed
	// by an annotation, another closer, a separator, or a FLWOR/if clause
	// keyword group — never silently by a sibling expression.
	for j := 0; j < len(body); j++ {
		if body[j] != ')' {
			continue
		}
		rest := body[j+1:]
		if rest == "" || rest == "\n" {
			continue
		}
		switch {
		case strings.HasPrefix(rest, "::{"): // annotated
		case rest[0] == ')' || rest[0] == ' ' || rest[0] == ']' || rest[0] == '\n': // structural closer/separator
		default:
			t.Fatalf("unannotated node boundary at %q in body:\n%s", rest[:min(20, len(rest))], body)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
