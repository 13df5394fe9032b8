// Docgen: run the full document-generation subsystem both ways — the
// XQuery implementation (the paper's first system) and the native rewrite —
// on a synthetic IT-architecture model, verify byte-identity, and show the
// cost difference.
package main

import (
	"fmt"
	"time"

	"lopsided/internal/docgen/native"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
)

func main() {
	model := workload.BuildITModel(workload.Config{Seed: 7, Users: 12, Systems: 4, Docs: 6})
	tpl := workload.ParseTemplate(workload.SystemContextTemplate)
	fmt.Printf("model: %+v\n\n", model.Stats())

	nat := native.New()
	xqg := xqgen.New()

	start := time.Now()
	resN, err := nat.Generate(model, tpl)
	if err != nil {
		panic(err)
	}
	natT := time.Since(start)

	start = time.Now()
	resX, err := xqg.Generate(model, tpl)
	if err != nil {
		panic(err)
	}
	xqT := time.Since(start)

	fmt.Printf("native  (mutable, one pass):   %8s, %d bytes, %d problems\n",
		natT.Round(time.Microsecond), len(resN.DocString()), len(resN.Problems))
	fmt.Printf("xquery  (5 phases, pure):      %8s, %d bytes, %d problems\n",
		xqT.Round(time.Microsecond), len(resX.DocString()), len(resX.Problems))
	fmt.Printf("byte-identical: %v\n\n", resN.DocString() == resX.DocString())

	for _, p := range resN.Problems {
		fmt.Println("problem:", p)
	}
	fmt.Println("\n--- document (first 40 lines) ---")
	pretty := xmltree.Indent(resN.Document)
	printHead(pretty, 40)
}

func printHead(s string, n int) {
	count := 0
	line := []byte{}
	for i := 0; i < len(s) && count < n; i++ {
		if s[i] == '\n' {
			fmt.Println(string(line))
			line = line[:0]
			count++
			continue
		}
		line = append(line, s[i])
	}
	if count == n {
		fmt.Println("  ...")
	} else if len(line) > 0 {
		fmt.Println(string(line))
	}
}
