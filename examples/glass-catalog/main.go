// Glass catalog: AWB retargeted to an antique glass dealer — the paper's
// demonstration that nothing IT-specific is hardwired. A different
// metamodel, the same model machinery, calculus, and document generator.
package main

import (
	"fmt"

	"lopsided/internal/awb/calculus"
	"lopsided/internal/docgen/native"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
)

func main() {
	model := workload.BuildGlassModel(1905)
	fmt.Printf("glass catalog model: %+v\n", model.Stats())
	fmt.Println("(no SystemBeingDesigned node, and no warning about it: the",
		"singleton expectation lives in the metamodel, not the tool)")
	warnings := 0
	for _, adv := range model.Validate() {
		if adv.Code == "singleton-missing" {
			warnings++
		}
	}
	fmt.Printf("singleton-missing advisories: %d\n\n", warnings)

	// A calculus query in the dealer's vocabulary.
	q, err := calculus.ParseXML(`
		<query>
		  <start type="Customer"/>
		  <follow relation="bought"/>
		  <follow relation="made-by"/>
		  <distinct/>
		  <sort by="label"/>
		</query>`)
	if err != nil {
		panic(err)
	}
	makers, err := q.EvalNative(model)
	if err != nil {
		panic(err)
	}
	fmt.Println("makers our customers have bought from:")
	for _, m := range makers {
		fmt.Println("  -", m.Label())
	}

	// The catalog document, generated by both engines.
	tpl := workload.ParseTemplate(workload.GlassCatalogTemplate)
	a, err := native.New().Generate(model, tpl)
	if err != nil {
		panic(err)
	}
	b, err := xqgen.New().Generate(model, tpl)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncatalog generated; engines byte-identical: %v\n\n", a.DocString() == b.DocString())
	fmt.Println(xmltree.Indent(a.Document))
}
