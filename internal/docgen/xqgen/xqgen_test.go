package xqgen

import (
	"strings"
	"testing"

	"lopsided/internal/awb"
	"lopsided/internal/docgen"
	"lopsided/internal/textkit"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
	"lopsided/internal/xslt"
	"lopsided/xq"
)

func TestPhasesCompile(t *testing.T) {
	for i, src := range PhaseSources() {
		if _, err := xq.Compile(src); err != nil {
			t.Fatalf("phase %d does not compile: %v", i+1, err)
		}
	}
}

func TestPhaseSourcesAreSubstantial(t *testing.T) {
	// The paper's generator was "a few thousand lines" of XQuery; the
	// reproduction's template vocabulary is smaller, but the program must
	// still be a real XQuery program, not a stub.
	total := 0
	for _, src := range PhaseSources() {
		total += textkit.XQueryCount(src)
	}
	if total < 250 {
		t.Fatalf("embedded XQuery program suspiciously small: %d lines", total)
	}
}

func TestGenerateBasics(t *testing.T) {
	m := awb.NewModel(workload.ITMetamodel())
	u := m.NewNode("User")
	u.SetProp("label", "only")
	res, err := New().Generate(m, workload.ParseTemplate(
		`<template><ul><for nodes="all.User"><li><label/></li></for></ul></template>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DocString(); got != `<ul><li>only</li></ul>` {
		t.Fatalf("got %s", got)
	}
}

func TestGenErrorSurfaced(t *testing.T) {
	m := awb.NewModel(workload.ITMetamodel())
	m.NewNode("Document")
	_, err := New().Generate(m, workload.ParseTemplate(
		`<template><for nodes="all.Document"><property name="version" required="true"/></for></template>`))
	ge, ok := err.(*GenError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ge.Location != "property" || ge.FocusID == "" {
		t.Fatalf("GenError = %+v", ge)
	}
	if !strings.Contains(ge.Error(), "property") {
		t.Fatal("Error() formatting")
	}
}

func TestWrongTemplateRoot(t *testing.T) {
	m := awb.NewModel(workload.ITMetamodel())
	_, err := New().Generate(m, workload.ParseTemplate(`<not-a-template/>`))
	if err == nil || !strings.Contains(err.Error(), "template") {
		t.Fatalf("want template-root error, got %v", err)
	}
}

func TestInternalDataFullyStripped(t *testing.T) {
	m := workload.BuildITModel(workload.Config{Seed: 1, Docs: 5, MissingVersionEvery: 2})
	res, err := New().Generate(m, workload.ParseTemplate(workload.SystemContextTemplate))
	if err != nil {
		t.Fatal(err)
	}
	doc := res.DocString()
	for _, leak := range []string{"INTERNAL-DATA", "VISITED", "REPLACEMENT", "<PROBLEM"} {
		if strings.Contains(doc, leak) {
			t.Fatalf("internal plumbing leaked into output: %s", leak)
		}
	}
	if len(res.Problems) == 0 {
		t.Fatal("expected missing-version problems")
	}
}

func TestGeneratorReusableAcrossModels(t *testing.T) {
	g := New()
	tpl := workload.ParseTemplate(workload.QuickTemplate)
	for seed := int64(1); seed <= 3; seed++ {
		m := workload.BuildITModel(workload.Config{Seed: seed})
		if _, err := g.Generate(m, tpl); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGalaxModeStillCorrect(t *testing.T) {
	// Running the generator with the buggy optimizer configuration must
	// not change output: the program insinuates no dummy-let traces.
	m := workload.BuildITModel(workload.Config{Seed: 4})
	tpl := workload.ParseTemplate(workload.QuickTemplate)
	normal, err := New().Generate(m, tpl)
	if err != nil {
		t.Fatal(err)
	}
	galax, err := New(xq.WithTraceEffectful(false)).Generate(m, tpl)
	if err != nil {
		t.Fatal(err)
	}
	if normal.DocString() != galax.DocString() {
		t.Fatal("optimizer configuration changed generator output")
	}
	// And with the optimizer fully off.
	o0, err := New(xq.WithOptLevel(xq.O0)).Generate(m, tpl)
	if err != nil {
		t.Fatal(err)
	}
	if normal.DocString() != o0.DocString() {
		t.Fatal("O0 changed generator output")
	}
}

func TestXSLTSplitterEquivalent(t *testing.T) {
	// The paper's actual final step — "a little XSLT program could split
	// them apart" — must agree exactly with the host-language split, on the
	// <SPLIT-OUTPUT> bundle the five-phase pipeline's phase 5 produces.
	m := workload.BuildITModel(workload.Config{Seed: 6, Docs: 5, MissingVersionEvery: 2})
	tpl := workload.ParseTemplate(workload.SystemContextTemplate)

	g := NewCopyPhases()
	if err := g.compile(); err != nil {
		t.Fatal(err)
	}
	vars := map[string]xq.Sequence{
		"model":    xq.Singleton(xq.NewNodeItem(xmltree.Freeze(m.ExportXML()))),
		"template": xq.Singleton(xq.NewNodeItem(tpl)),
	}
	// The variables each phase reads, as Generate binds them.
	phaseVars := []map[string]xq.Sequence{vars, {"model": vars["model"]}, nil, nil, nil}
	var split *xmltree.Node
	for i, v := range phaseVars {
		var err error
		if split, err = g.runPhase(i, split, v); err != nil {
			t.Fatal(err)
		}
	}

	res1, err := splitResult(split)
	if err != nil {
		t.Fatal(err)
	}
	doc, problems, err := xslt.SplitStreams(split)
	if err != nil {
		t.Fatal(err)
	}
	res2 := &docgen.Result{Document: doc, Problems: problems}
	if len(res1.Problems) == 0 {
		t.Fatal("expected missing-version problems in the bundle")
	}
	if res1.DocString() != res2.DocString() {
		t.Fatal("XSLT splitter changed the document stream")
	}
	if len(res1.Problems) != len(res2.Problems) {
		t.Fatalf("problem streams differ: %v vs %v", res1.Problems, res2.Problems)
	}
	for i := range res1.Problems {
		if res1.Problems[i] != res2.Problems[i] {
			t.Fatalf("problem %d differs: %q vs %q", i, res1.Problems[i], res2.Problems[i])
		}
	}
}

// TestGenerateStepsPinned: one document of the default IT model costs an
// exact number of evaluation steps, and its keyed lookups — node[@id = …],
// relation[@source = …], property[@name = …] — are served from the frozen
// model's index. With every lookup a scan (the plan before the keyed fold)
// the two phases were 57 065 and 7 661 steps; a step count that moves says a plan changed, in either direction.
func TestGenerateStepsPinned(t *testing.T) {
	model := workload.BuildITModel(workload.Config{})
	tpl := workload.ParseTemplate(workload.SystemContextTemplate)
	g := New()
	var phases []xq.EvalStats
	g.SlowQueryLog(0, func(_ int, st xq.EvalStats) { phases = append(phases, st) })
	if _, err := g.Generate(model, tpl); err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("%d phases reported, want generation + update", len(phases))
	}
	const wantGen, wantUpdate = 25431, 4853
	if gen, up := phases[0].Steps, phases[1].Steps; gen != wantGen || up != wantUpdate {
		t.Errorf("steps: generation %d, update %d; want %d, %d", gen, up, wantGen, wantUpdate)
	}
	if gen := phases[0]; gen.IndexHits == 0 || gen.IndexFallbacks != 0 {
		t.Errorf("generation: index hits %d, fallbacks %d; want the model's index serving every probe", gen.IndexHits, gen.IndexFallbacks)
	}
}
