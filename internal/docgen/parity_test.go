package docgen_test

import (
	"reflect"
	"strings"
	"testing"

	"lopsided/internal/awb"
	"lopsided/internal/docgen"
	"lopsided/internal/docgen/native"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
)

// TestEngineParity is experiment E10: "In a few weeks we had pretty much
// reproduced the power of the XQuery code." The native rewrite, the paper's
// five-phase XQuery pipeline and its single-pass replacement must produce
// byte-identical documents and identical problem lists on the full template
// corpus over a range of models.
func TestEngineParity(t *testing.T) {
	nat := native.New()
	xqgens := map[string]docgen.Generator{
		"copy phases": xqgen.NewCopyPhases(),
		"single pass": xqgen.New(),
	}
	models := map[string]*awb.Model{
		"small":       workload.BuildITModel(workload.Config{Seed: 1}),
		"medium":      workload.BuildITModel(workload.Config{Seed: 2, Users: 25, Systems: 6, Servers: 8, Programs: 12, Docs: 9}),
		"no-sbd":      workload.BuildITModel(workload.Config{Seed: 3, OmitSystemBeingDesigned: true}),
		"overridden":  workload.BuildITModel(workload.Config{Seed: 4, OverrideEvery: 2}),
		"empty-model": awb.NewModel(workload.ITMetamodel()),
		"glass":       workload.BuildGlassModel(7),
	}
	templates := map[string]*xmltree.Node{
		"quick":   workload.ParseTemplate(workload.QuickTemplate),
		"context": workload.ParseTemplate(workload.SystemContextTemplate),
		"glass":   workload.ParseTemplate(workload.GlassCatalogTemplate),
		"scaling": workload.ScalingTemplate(5),
	}
	for mname, model := range models {
		for tname, tpl := range templates {
			t.Run(mname+"/"+tname, func(t *testing.T) {
				a, errA := nat.Generate(model, tpl)
				for xname, xqg := range xqgens {
					b, errB := xqg.Generate(model, tpl)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("error disagreement: native=%v xquery (%s)=%v", errA, xname, errB)
					}
					if errA != nil {
						continue
					}
					da, db := a.DocString(), b.DocString()
					if da != db {
						t.Fatalf("documents differ:\nnative: %s\nxquery (%s): %s", clip(da), xname, clip(db))
					}
					if !reflect.DeepEqual(a.Problems, b.Problems) {
						t.Fatalf("problems differ:\nnative: %q\nxquery (%s): %q", a.Problems, xname, b.Problems)
					}
				}
			})
		}
	}
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "..."
	}
	return s
}

// TestQuickTemplateOutput pins the paper's introductory example output.
func TestQuickTemplateOutput(t *testing.T) {
	meta := workload.ITMetamodel()
	m := awb.NewModel(meta)
	u1 := m.NewNode("User")
	u1.SetProp("label", "ann")
	u2 := m.NewNode("Superuser")
	u2.SetProp("label", "root")
	res, err := native.New().Generate(m, workload.ParseTemplate(workload.QuickTemplate))
	if err != nil {
		t.Fatal(err)
	}
	want := `<html><body><ol><li>ann</li><li><b>root</b> (superuser)</li></ol></body></html>`
	// QuickTemplate has no "(superuser)" text; build expectation from the
	// actual template: superusers are bolded.
	want = `<html><body><ol><li>ann</li><li><b>root</b></li></ol></body></html>`
	if got := res.DocString(); got != want {
		t.Fatalf("got %s", got)
	}
}

// TestRequiredPropertyErrorBothEngines: the C1 error path is fatal in both
// implementations when a required property is missing.
func TestRequiredPropertyErrorBothEngines(t *testing.T) {
	m := workload.BuildITModel(workload.Config{Seed: 1, Docs: 3, MissingVersionEvery: 2})
	tpl := workload.ErrorTemplate(2)
	_, errN := native.New().Generate(m, tpl)
	_, errX := xqgen.New().Generate(m, tpl)
	if errN == nil || errX == nil {
		t.Fatalf("both should fail: native=%v xquery=%v", errN, errX)
	}
	var gt *native.GenTrouble
	if !asErr(errN, &gt) {
		t.Fatalf("native error type: %T", errN)
	}
	if gt.FocusID == "" || !strings.Contains(gt.Msg, "version") {
		t.Fatalf("GenTrouble should carry focus and property: %+v", gt)
	}
	var ge *xqgen.GenError
	if !asErr(errX, &ge) {
		t.Fatalf("xquery error type: %T", errX)
	}
	if ge.FocusID == "" || !strings.Contains(ge.Message, "version") {
		t.Fatalf("GenError should carry focus and property: %+v", ge)
	}
}

func asErr[T error](err error, target *T) bool {
	for err != nil {
		if e, ok := err.(T); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestProblemsStream: missing non-required properties produce identical
// problem notes (the second output stream) in both engines.
func TestProblemsStream(t *testing.T) {
	m := workload.BuildITModel(workload.Config{Seed: 5, Docs: 6, MissingVersionEvery: 2})
	tpl := workload.ParseTemplate(`<template><body><for nodes="all.Document"><p><label/> v<property name="version"/></p></for></body></template>`)
	a, err := native.New().Generate(m, tpl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := xqgen.New().Generate(m, tpl)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Problems) == 0 {
		t.Fatal("expected some problems")
	}
	if !reflect.DeepEqual(a.Problems, b.Problems) {
		t.Fatalf("problems differ:\n%q\n%q", a.Problems, b.Problems)
	}
	for _, p := range a.Problems {
		if !strings.Contains(p, `has no property "version"`) {
			t.Fatalf("unexpected problem: %q", p)
		}
	}
}

// TestMatrixShape pins the T2 row/col table shape: first row is corner plus
// column titles; each later row is a row title plus marks.
func TestMatrixShape(t *testing.T) {
	meta := workload.ITMetamodel()
	m := awb.NewModel(meta)
	u1 := m.NewNode("User")
	u1.SetProp("label", "u1")
	u2 := m.NewNode("User")
	u2.SetProp("label", "u2")
	s1 := m.NewNode("System")
	s1.SetProp("label", "s1")
	s2 := m.NewNode("System")
	s2.SetProp("label", "s2")
	m.Connect("uses", u1, s1)
	m.Connect("uses", u2, s2)
	tpl := workload.ParseTemplate(`<template><body><matrix rows="all.User" cols="all.System" relation="uses"/></body></template>`)

	for _, gen := range []docgen.Generator{native.New(), xqgen.New()} {
		res, err := gen.Generate(m, tpl)
		if err != nil {
			t.Fatalf("%s: %v", gen.Name(), err)
		}
		want := `<body><table class="matrix">` +
			`<tr><td>row\col</td><td>s1</td><td>s2</td></tr>` +
			`<tr><td>u1</td><td>X</td><td/></tr>` +
			`<tr><td>u2</td><td/><td>X</td></tr>` +
			`</table></body>`
		if got := res.DocString(); got != want {
			t.Fatalf("%s:\ngot  %s\nwant %s", gen.Name(), got, want)
		}
	}
}

// TestTOCAndOmissions pins the ToC ids/links and the omissions list.
func TestTOCAndOmissions(t *testing.T) {
	meta := workload.ITMetamodel()
	m := awb.NewModel(meta)
	u := m.NewNode("User")
	u.SetProp("label", "seen")
	v := m.NewNode("User")
	v.SetProp("label", "unseen")
	tpl := workload.ParseTemplate(`<template><body>
	  <toc-here/>
	  <section><heading>One</heading><p><label-for/></p></section>
	  <section><heading>Two</heading><for nodes="all.User"><if><test><property-equals name="label" value="seen"/></test><then><label/></then></if></for></section>
	  <table-of-omissions types="User"/>
	</body></template>`)
	// label-for is not a directive: it copies through, a handy marker.
	for _, gen := range []docgen.Generator{native.New(), xqgen.New()} {
		res, err := gen.Generate(m, tpl)
		if err != nil {
			t.Fatalf("%s: %v", gen.Name(), err)
		}
		doc := res.DocString()
		for _, want := range []string{
			`<ol class="toc"><li><a href="#sec-1">One</a></li><li><a href="#sec-2">Two</a></li></ol>`,
			`<h2 class="section-heading" id="sec-1">One</h2>`,
			`<h2 class="section-heading" id="sec-2">Two</h2>`,
			// Both users were focused by <for>, hence visited; but only if
			// iteration marks visited... the <for> visits both, so the
			// omissions list must be empty.
			`<ul class="omissions"/>`,
		} {
			if !strings.Contains(doc, want) {
				t.Fatalf("%s output missing %q:\n%s", gen.Name(), want, doc)
			}
		}
	}
}

// TestMarkerSplice pins the phrase-replacement behavior.
func TestMarkerSplice(t *testing.T) {
	m := awb.NewModel(workload.ITMetamodel())
	tpl := workload.ParseTemplate(`<template><body>
	  <replace-marker marker="HERE"><b>spliced</b></replace-marker>
	  <p>before HERE after, and HERE again</p>
	</body></template>`)
	for _, gen := range []docgen.Generator{native.New(), xqgen.New()} {
		res, err := gen.Generate(m, tpl)
		if err != nil {
			t.Fatalf("%s: %v", gen.Name(), err)
		}
		want := `<p>before <b>spliced</b> after, and <b>spliced</b> again</p>`
		if !strings.Contains(res.DocString(), want) {
			t.Fatalf("%s: %s", gen.Name(), res.DocString())
		}
	}
}

// TestOmissionsRespectVisits: nodes focused anywhere in the document —
// even after the omissions placeholder — are not omissions.
func TestOmissionsRespectVisits(t *testing.T) {
	m := awb.NewModel(workload.ITMetamodel())
	a := m.NewNode("User")
	a.SetProp("label", "visited-late")
	b := m.NewNode("User")
	b.SetProp("label", "never-visited")
	tpl := workload.ParseTemplate(`<template><body>
	  <table-of-omissions types="User"/>
	  <for nodes="all.User"><if><test><property-equals name="label" value="visited-late"/></test><then><label/></then></if></for>
	</body></template>`)
	// Note: the <for> focuses BOTH users (iteration marks visited), so the
	// omissions must be empty even though the placeholder precedes it.
	for _, gen := range []docgen.Generator{native.New(), xqgen.New()} {
		res, err := gen.Generate(m, tpl)
		if err != nil {
			t.Fatalf("%s: %v", gen.Name(), err)
		}
		if !strings.Contains(res.DocString(), `<ul class="omissions"/>`) {
			t.Fatalf("%s: omissions should be empty: %s", gen.Name(), res.DocString())
		}
	}
}

// TestGlassRetargeting: the same machinery drives the antique-glass-dealer
// metamodel (AWB "has retargeted to be a workbench for an antique glass
// dealer").
func TestGlassRetargeting(t *testing.T) {
	m := workload.BuildGlassModel(11)
	tpl := workload.ParseTemplate(workload.GlassCatalogTemplate)
	res, err := native.New().Generate(m, tpl)
	if err != nil {
		t.Fatal(err)
	}
	doc := res.DocString()
	if !strings.Contains(doc, "Tiffany Studios") || !strings.Contains(doc, "Unsold Pieces") {
		t.Fatalf("glass output: %s", clip(doc))
	}
	// Unsold pieces (never focused via followback.made-by? all pieces have
	// makers, so all are visited; bought/unbought isn't tracked here —
	// just assert the omissions list exists).
	if !strings.Contains(doc, `class="omissions"`) {
		t.Fatal("omissions list missing")
	}
}
