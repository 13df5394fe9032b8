package experiments

import (
	"fmt"
	"slices"
	"time"

	"lopsided/internal/awb"
	"lopsided/internal/docgen"
	"lopsided/internal/docgen/native"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/textkit"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

func init() {
	register("E3", "The row/col table, both ways", runE3)
	register("E5", "Multi-phase (functional) vs mutable generation", runE5)
	register("E10", "Rewrite parity: both generators, identical output", runE10)
}

// matrixModel builds the 2x2 example of the paper's table section.
func matrixModel() *awb.Model {
	m := awb.NewModel(workload.ITMetamodel())
	mk := func(typ, label string) *awb.Node {
		n := m.NewNode(typ)
		n.SetProp("label", label)
		return n
	}
	r1 := mk("User", "row title 1")
	r2 := mk("User", "row title 2")
	c1 := mk("System", "col title 1")
	c2 := mk("System", "col title 2")
	m.Connect("uses", r1, c1)
	m.Connect("uses", r1, c2)
	m.Connect("uses", r2, c1)
	m.Connect("uses", r2, c2)
	return m
}

func runE3() (Report, error) {
	model := matrixModel()
	tpl := workload.ParseTemplate(
		`<template><matrix rows="all.User" cols="all.System" relation="uses" corner="row\col" mark="val"/></template>`)
	resN, errN := native.New().Generate(model, tpl)
	if errN != nil {
		return Report{}, fmt.Errorf("native matrix generation: %w", errN)
	}
	resX, errX := xqgen.New().Generate(model, tpl)
	if errX != nil {
		return Report{}, fmt.Errorf("xquery matrix generation: %w", errX)
	}
	pretty := xmltree.Serialize(resN.Document, xmltree.SerializeOptions{Indent: "  ", OmitDecl: true})
	same := resN.DocString() == resX.DocString()
	return Report{
		ID:    "E3",
		Title: "The row/col table (T2)",
		Paper: `the XQuery version was "a large and somewhat intricate segment of code" built all at once; the Java version built a skeleton and filled corner, row titles, column titles and values "each in a separate loop"`,
		Text: pretty + fmt.Sprintf(
			"\n\nnative (skeleton + 2-D array fill) == xquery (all-at-once): %v\n", same),
		Verdict: "both construction styles produce the paper's table shape byte-identically; the imperative skeleton-and-fill never mingles row titles with cell values",
	}, nil
}

// parityCorpus is the model/template grid used by E10.
func parityCorpus() (map[string]*awb.Model, map[string]*xmltree.Node) {
	models := map[string]*awb.Model{
		"small":  workload.BuildITModel(workload.Config{Seed: 1}),
		"medium": workload.BuildITModel(workload.Config{Seed: 2, Users: 25, Systems: 6, Servers: 8, Programs: 12, Docs: 9}),
		"glass":  workload.BuildGlassModel(7),
	}
	templates := map[string]*xmltree.Node{
		"quick":   workload.ParseTemplate(workload.QuickTemplate),
		"context": workload.ParseTemplate(workload.SystemContextTemplate),
		"glass":   workload.ParseTemplate(workload.GlassCatalogTemplate),
	}
	return models, templates
}

// namedGen is one column of E5 and one party to E10.
type namedGen struct {
	name string
	gen  docgen.Generator
}

// docGenerators lists the generator the paper's team ended with, the one
// they started with, and the single-pass form an update sublanguage would
// have allowed — in E5's column order.
func docGenerators() []namedGen {
	return []namedGen{
		{"native", native.New()},
		{"xquery (5 phases)", xqgen.NewCopyPhases()},
		{"xquery (single pass)", xqgen.New()},
	}
}

// generateAlike runs every generator on one model/template pair and
// returns their common result. A generator that fails, or whose document
// or problem list differs from the first one's by a byte, is an error, so
// a parity break fails the experiment instead of decorating its verdict.
func generateAlike(gens []namedGen, model *awb.Model, tpl *xmltree.Node) (*docgen.Result, error) {
	var first *docgen.Result
	for i, g := range gens {
		res, err := g.gen.Generate(model, tpl)
		switch {
		case err != nil:
			return nil, fmt.Errorf("parity failure: %s: %w", g.name, err)
		case i == 0:
			first = res
		case res.DocString() != first.DocString():
			return nil, fmt.Errorf("parity failure: %s and %s documents differ", gens[0].name, g.name)
		case fmt.Sprint(res.Problems) != fmt.Sprint(first.Problems):
			return nil, fmt.Errorf("parity failure: %s and %s problem lists differ", gens[0].name, g.name)
		}
	}
	return first, nil
}

func runE10() (Report, error) {
	models, templates := parityCorpus()
	gens := docGenerators()
	var rows [][]string
	for mname, model := range models {
		for tname, tpl := range templates {
			res, err := generateAlike(gens, model, tpl)
			if err != nil {
				return Report{}, fmt.Errorf("%s/%s: %w", mname, tname, err)
			}
			rows = append(rows, []string{mname, tname,
				fmt.Sprintf("identical (%d bytes, %d problems)", len(res.DocString()), len(res.Problems))})
		}
	}
	return Report{
		ID:      "E10",
		Title:   "Rewrite parity (C3, power half)",
		Paper:   `"In a few weeks we had pretty much reproduced the power of the XQuery code."`,
		Text:    textkit.Table([]string{"model", "template", "native = 5 phases = single pass"}, rows),
		Verdict: "the rewrite fully reproduces the XQuery generator's behavior — every model/template pair byte-identical across the native generator, the five-phase pipeline and the single-pass update program",
	}, nil
}

// docgenTime is gen's median wall time on a pair the caller has already
// generated once, so plans are compiled and the pair is known good.
func docgenTime(gen docgen.Generator, model *awb.Model, tpl *xmltree.Node, runs int) (time.Duration, error) {
	var timedErr error
	d := medianTime(runs, func() {
		if _, err := gen.Generate(model, tpl); err != nil && timedErr == nil {
			timedErr = err
		}
	})
	if timedErr != nil {
		return 0, fmt.Errorf("generation failed during timing: %w", timedErr)
	}
	return d, nil
}

func runE5() (Report, error) {
	sizes := []struct {
		name string
		cfg  workload.Config
	}{
		{"tiny (8 users)", workload.Config{Seed: 1}},
		{"small (25 users)", workload.Config{Seed: 2, Users: 25, Systems: 6, Servers: 8, Programs: 12, Docs: 9}},
		{"medium (60 users)", workload.Config{Seed: 3, Users: 60, Systems: 10, Servers: 12, Programs: 20, Docs: 15}},
	}
	tpl := workload.ParseTemplate(workload.SystemContextTemplate)
	// The fourth column is the third planned without access paths: every
	// keyed lookup of the generation query is a scan, which is what an
	// engine without indexes (as Galax was) pays.
	gens := append(docGenerators(), namedGen{"xquery (single pass, walk plan)", xqgen.New(xq.WithAccessPaths(false))})
	var rows [][]string
	var phases, single, walked []float64 // slowdown over native, one per size
	var copies []float64                 // share of the five-phase time the single pass saves
	for _, s := range sizes {
		model := workload.BuildITModel(s.cfg)
		// Nothing is timed until every generator has produced the same
		// bytes for this model.
		if _, err := generateAlike(gens, model, tpl); err != nil {
			return Report{}, fmt.Errorf("%s: %w", s.name, err)
		}
		t := make([]time.Duration, len(gens))
		for i, g := range gens {
			d, err := docgenTime(g.gen, model, tpl, 5)
			if err != nil {
				return Report{}, fmt.Errorf("%s, %s: %w", s.name, g.name, err)
			}
			t[i] = d
		}
		nat, five, one, walk := float64(t[0]), float64(t[1]), float64(t[2]), float64(t[3])
		phases, single, walked = append(phases, five/nat), append(single, one/nat), append(walked, walk/nat)
		copies = append(copies, (five-one)/five)
		rows = append(rows, []string{s.name, fmtDur(t[0]), fmtDur(t[1]), fmtDur(t[2]), fmtDur(t[3]),
			textkit.Ratio(five, nat), textkit.Ratio(one, nat), textkit.Ratio(walk, nat)})
	}
	return Report{
		ID:    "E5",
		Title: "Multi-phase vs mutable generation (C2)",
		Paper: `the phase pipeline "was fairly inefficient, requiring multiple copies of the entire output (complete with internal notes that weren't going to get into the final output)"; the Java mutation pass was "remarkable in its routineness"`,
		Text: textkit.Table(
			[]string{"model", "native (mutable, 1 pass)", "xquery (5 phases, full copies)", "xquery (single pass, 1 update)", "xquery (single pass, walk plan)", "5 phases/native", "single pass/native", "walk plan/native"},
			rows),
		Verdict: fmt.Sprintf("the five-phase functional pipeline the paper describes runs %.0f-%.0fx slower than the mutable native pass — the paper's \"fairly inefficient\" understates it once an interpreter sits underneath; folding phases 2-5 into one update program leaves %.0f-%.0fx, so the full copies are %.0f-%.0f%% of the five-phase time; the generation query's keyed lookups are index probes here, and planned as the scans an engine without indexes runs the single pass is %.0f-%.0fx; all four outputs are byte-identical (checked before timing, and the first three on E10's grid)",
			slices.Min(phases), slices.Max(phases), slices.Min(single), slices.Max(single),
			100*slices.Min(copies), 100*slices.Max(copies), slices.Min(walked), slices.Max(walked)),
	}, nil
}
