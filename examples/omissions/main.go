// Omissions: the always-visible UI window that forced the paper's rewrite.
// The same calculus query runs three ways: the native evaluator (fast
// enough for a UI), the compiled-to-XQuery warm path, and the full cold
// path (export + compile + evaluate) — the one the paper judged
// "preposterously inefficient".
package main

import (
	"fmt"
	"time"

	"lopsided/internal/awb/calculus"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
)

// Documents lacking version information, plus advisory model validation —
// together, the Omissions window's content.
const missingVersionQuery = `
<query>
  <start type="Document"/>
  <sort by="label"/>
</query>`

func main() {
	model := workload.BuildITModel(workload.Config{
		Seed: 3, Users: 20, Systems: 5, Docs: 9, MissingVersionEvery: 3,
		OmitSystemBeingDesigned: true,
	})
	fmt.Printf("model: %+v\n\n", model.Stats())

	// 1. Advisory validation: the meek warnings in the corner of the screen.
	fmt.Println("advisories:")
	for _, adv := range model.Validate() {
		if adv.Severity.String() == "warning" {
			fmt.Printf("  [%s] %s\n", adv.Code, adv.Message)
		}
	}

	// 2. The calculus query, evaluated natively and through XQuery.
	q, err := calculus.ParseXML(missingVersionQuery)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	docs, err := q.EvalNative(model)
	if err != nil {
		panic(err)
	}
	natT := time.Since(start)

	fmt.Println("\ndocuments without version info (the Omissions folder):")
	for _, d := range docs {
		if _, has := d.Prop("version"); !has {
			fmt.Printf("  %s  %s\n", d.ID, d.Label())
		}
	}

	compiled, err := q.Compile()
	if err != nil {
		panic(err)
	}
	doc := xmltree.Freeze(model.ExportXML())
	start = time.Now()
	if _, err := compiled.Run(doc); err != nil {
		panic(err)
	}
	warmT := time.Since(start)

	start = time.Now()
	if _, err := q.EvalXQuery(model); err != nil {
		panic(err)
	}
	coldT := time.Since(start)

	fmt.Printf("\ntimings for the query itself:\n")
	fmt.Printf("  native evaluator:            %8s\n", natT.Round(time.Microsecond))
	fmt.Printf("  compiled XQuery, warm:       %8s\n", warmT.Round(time.Microsecond))
	fmt.Printf("  export+compile+eval (cold):  %8s\n", coldT.Round(time.Microsecond))
	fmt.Println("\nthe UI refreshes this on every model edit; only one of these is viable.")
}
