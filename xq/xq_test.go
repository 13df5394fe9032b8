package xq

import (
	"fmt"
	"strings"
	"testing"
)

func TestCompileAndEval(t *testing.T) {
	q, err := Compile(`1 + 2`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Eval(nil, nil)
	if err != nil || Serialize(out) != "3" {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestEvalWithContextAndVars(t *testing.T) {
	doc, err := ParseXML(`<lib><book>A</book><book>B</book></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`for $b in /lib/book where $b = $want return $b`)
	out, err := q.EvalString(nil, doc, WithVars(map[string]Sequence{"want": Singleton(String("B"))}))
	if err != nil || out != "<book>B</book>" {
		t.Fatalf("got %q, %v", out, err)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile should panic on bad source")
		}
	}()
	MustCompile(`let $x :=`)
}

func TestOptionsPlumbing(t *testing.T) {
	var traced [][]string
	q, err := Compile(`let $d := trace("gone", 1) return 2`,
		WithOptLevel(O2),
		WithTraceEffectful(false),
		WithTracer(TraceFunc(func(v []string) { traced = append(traced, v) })),
	)
	if err != nil {
		t.Fatal(err)
	}
	if q.Stats.EliminatedLets != 1 {
		t.Fatalf("stats: %+v", q.Stats)
	}
	out, err := q.EvalString(nil, nil)
	if err != nil || out != "2" {
		t.Fatal(out, err)
	}
	if len(traced) != 0 {
		t.Fatal("trace should have been eliminated")
	}
}

func TestDocResolverOption(t *testing.T) {
	q, err := Compile(`count(doc("m")//x)`, WithDocResolver(func(uri string) (*Node, error) {
		return ParseXML(`<r><x/><x/><x/></r>`)
	}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.EvalString(nil, nil)
	if err != nil || out != "3" {
		t.Fatalf("got %q, %v", out, err)
	}
}

func TestDupAttrOption(t *testing.T) {
	src := `let $a := attribute a {1} let $b := attribute a {2} return <el>{$a}{$b}</el>`
	q := MustCompile(src, WithDupAttrPolicy(DupAttrGalaxBug))
	out, _ := q.EvalString(nil, nil)
	if out != `<el a="1" a="2"/>` {
		t.Fatalf("galax bug mode: %q", out)
	}
	q2 := MustCompile(src, WithDupAttrPolicy(DupAttrError))
	if _, err := q2.Eval(nil, nil); err == nil || !strings.Contains(err.Error(), "XQDY0025") {
		t.Fatalf("strict mode: %v", err)
	}
}

func TestMaxDepthOption(t *testing.T) {
	q := MustCompile(`declare function local:f($n) { local:f($n) }; local:f(1)`, WithLimits(Limits{MaxDepth: 16}))
	if _, err := q.Eval(nil, nil); err == nil {
		t.Fatal("expected recursion limit")
	}
}

func TestQueryReusable(t *testing.T) {
	q := MustCompile(`count(//i)`)
	a, _ := ParseXML(`<r><i/></r>`)
	b, _ := ParseXML(`<r><i/><i/></r>`)
	for i := 0; i < 2; i++ {
		if out, _ := q.EvalString(nil, a); out != "1" {
			t.Fatal("doc a")
		}
		if out, _ := q.EvalString(nil, b); out != "2" {
			t.Fatal("doc b")
		}
	}
}

func TestConcurrentEvaluation(t *testing.T) {
	// The facade documents that a compiled Query is "safe for repeated
	// evaluation (evaluations do not share mutable state)"; exercise that
	// claim under the race detector.
	q := MustCompile(`declare function local:f($n) {
	  if ($n le 0) then 0 else $n + local:f($n - 1)
	}; local:f($k) + count(//x)`)
	doc, _ := ParseXML(`<r><x/><x/></r>`)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		k := g
		go func() {
			for i := 0; i < 50; i++ {
				out, err := q.EvalString(nil, doc, WithVars(map[string]Sequence{
					"k": Singleton(Integer(k)),
				}))
				if err != nil {
					done <- err
					return
				}
				want := k*(k+1)/2 + 2
				if out != itoa(want) {
					done <- errf("got %s, want %d", out, want)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func errf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}
