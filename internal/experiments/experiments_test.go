package experiments

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"lopsided/internal/awb"
	"lopsided/internal/docgen"
	"lopsided/internal/docgen/native"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"}
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("IDs() = %v, want exactly %v", got, want)
	}
	if _, err := Run("E0"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestFastExperiments runs the cheap, fully-deterministic experiments and
// checks their key assertions (the timing-heavy ones run via
// lopsided-bench and the benchmarks).
func TestFastExperiments(t *testing.T) {
	t.Run("E1", func(t *testing.T) {
		rep, err := Run("E1")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rep.Verdict, "6/7") {
			t.Fatalf("E1 verdict: %s", rep.Verdict)
		}
		if !strings.Contains(rep.Text, "XQTY0024") {
			t.Fatal("E1 should show the element-rep error")
		}
	})
	t.Run("E2", func(t *testing.T) {
		rep, err := Run("E2")
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`<el troubles="1"/>`, `a="1" a="2"`, "XQDY0025", "XQTY0024"} {
			if !strings.Contains(rep.Text, want) {
				t.Fatalf("E2 missing %q:\n%s", want, rep.Text)
			}
		}
	})
	t.Run("E7", func(t *testing.T) {
		rep, err := Run("E7")
		if err != nil {
			t.Fatal(err)
		}
		// The buggy configuration fires zero traces and eliminates one let.
		if !strings.Contains(rep.Text, "Galax-era O2, trace pure      50      0             1") {
			t.Fatalf("E7 table:\n%s", rep.Text)
		}
	})
	t.Run("E9", func(t *testing.T) {
		rep, err := Run("E9")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rep.Verdict, "4/4") {
			t.Fatalf("E9 verdict: %s", rep.Verdict)
		}
	})
	t.Run("E3", func(t *testing.T) {
		rep, err := Run("E3")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rep.Text, "== xquery (all-at-once): true") {
			t.Fatalf("E3 parity:\n%s", rep.Text)
		}
	})
}

func TestChainProgramsAgree(t *testing.T) {
	// The generated E4 programs must stay runnable and consistent.
	for _, k := range []int{1, 3} {
		xqSrc := XQueryChainProgram(k)
		if !strings.Contains(xqSrc, "local:required-child") {
			t.Fatal("chain program shape")
		}
		goSrc := GoChainProgram(k)
		if !strings.Contains(goSrc, "requiredChild") {
			t.Fatal("go chain shape")
		}
	}
	doc := chainDoc(3)
	out, err := GoChainRun(doc, 3)
	if err != nil || out != "c3" {
		t.Fatal(out, err)
	}
	if _, err := GoChainRun(chainDoc(2), 3); err == nil {
		t.Fatal("missing child should error")
	}
}

func TestHarnessContainsFailingExperiments(t *testing.T) {
	// Test-only runners, numbered past the real series so they sort last
	// and can be dropped again.
	n := len(registry)
	t.Cleanup(func() { registry = registry[:n] })
	register("E98", "always fails", func() (Report, error) {
		return Report{}, errors.New("deliberate failure")
	})
	register("E99", "always panics", func() (Report, error) {
		panic("deliberate panic")
	})

	if _, err := Run("E98"); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("Run(E98) = %v, want the runner's error, annotated", err)
	}
	if _, err := Run("E99"); err == nil || !strings.Contains(err.Error(), "deliberate panic") {
		t.Fatalf("Run(E99) = %v, want the contained panic as an error", err)
	}

	// A RunAll-style sweep over the broken runners still visits both and
	// records each failure instead of dying on the first.
	seen := map[string]error{}
	for _, id := range []string{"E98", "E99"} {
		_, err := Run(id)
		seen[id] = err
	}
	if seen["E98"] == nil || seen["E99"] == nil {
		t.Fatalf("sweep lost a failure: %v", seen)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{ID: "EX", Title: "T", Paper: "P", Text: "body", Verdict: "V"}
	s := rep.String()
	for _, want := range []string{"EX", "T", "P", "body", "V"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Report.String missing %q", want)
		}
	}
}

func TestCompiledSourcePreview(t *testing.T) {
	if !strings.Contains(CompiledSourcePreview(), "declare function local:is-node-subtype") {
		t.Fatal("preview should show the compiled prelude")
	}
}

// alteredGen is the native generator with one extra problem note, or
// failing outright: a generator that has drifted from the others.
type alteredGen struct {
	docgen.Generator
	fail bool
}

func (g alteredGen) Generate(m *awb.Model, tpl *xmltree.Node) (*docgen.Result, error) {
	if g.fail {
		return nil, errors.New("drifted")
	}
	res, err := g.Generator.Generate(m, tpl)
	if err == nil {
		res.Problems = append(res.Problems, "drifted")
	}
	return res, err
}

// TestParityBreakIsAnError: E5 and E10 compare their generators through
// generateAlike, and a difference must come back as an error (so
// lopsided-bench exits 1), never as a report with an unhappy verdict.
func TestParityBreakIsAnError(t *testing.T) {
	model, tpl := matrixModel(), workload.ParseTemplate(workload.QuickTemplate)
	gens := docGenerators()
	if res, err := generateAlike(gens, model, tpl); err != nil || res == nil {
		t.Fatalf("three real generators: res=%v err=%v", res, err)
	}
	for _, fail := range []bool{false, true} {
		drifted := append(gens[:2:2], namedGen{"drifted", alteredGen{native.New(), fail}})
		if _, err := generateAlike(drifted, model, tpl); err == nil || !strings.Contains(err.Error(), "parity failure") {
			t.Errorf("fail=%v: err = %v, want a parity failure", fail, err)
		}
	}
}
