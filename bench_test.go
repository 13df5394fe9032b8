// Benchmarks regenerating the paper's measurable artifacts as testing.B
// targets — one family per experiment in DESIGN.md's index. Run:
//
//	go test -bench=. -benchmem
package lopsided_test

import (
	"fmt"
	"testing"

	"lopsided/internal/awb/calculus"
	"lopsided/internal/docgen/native"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/experiments"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

// ---- E1: the sequence-indexing table ----

func BenchmarkPaperTable1Row(b *testing.B) {
	q := xq.MustCompile(`let $X := ("1a","1b") let $Y := 2 let $Z := 3 return ($X,$Y,$Z)[2]`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: the row/col matrix, both construction styles ----

func benchMatrix(b *testing.B, engine string) {
	model := workload.BuildITModel(workload.Config{Seed: 9, Users: 10, Systems: 6})
	tpl := workload.ParseTemplate(
		`<template><matrix rows="all.User" cols="all.System" relation="uses"/></template>`)
	nat := native.New()
	xqg := xqgen.New()
	if _, err := xqg.Generate(model, tpl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if engine == "native" {
			_, err = nat.Generate(model, tpl)
		} else {
			_, err = xqg.Generate(model, tpl)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixNative(b *testing.B) { benchMatrix(b, "native") }
func BenchmarkMatrixXQuery(b *testing.B) { benchMatrix(b, "xquery") }

// ---- E4: error-handling chains ----

func BenchmarkErrorChainXQuery(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := xq.MustCompile(experiments.XQueryChainProgram(k))
			doc := xmltree.NewDocument()
			root := xmltree.NewElement("root")
			doc.AppendChild(root)
			cur := root
			for i := 1; i <= k; i++ {
				c := xmltree.NewElement(fmt.Sprintf("c%d", i))
				cur.AppendChild(c)
				cur = c
			}
			vars := map[string]xq.Sequence{"doc": xq.Singleton(xq.NewNodeItem(doc))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(nil, nil, xq.WithVars(vars)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkErrorChainGo(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			doc := xmltree.NewDocument()
			root := xmltree.NewElement("root")
			doc.AppendChild(root)
			cur := root
			for i := 1; i <= k; i++ {
				c := xmltree.NewElement(fmt.Sprintf("c%d", i))
				cur.AppendChild(c)
				cur = c
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.GoChainRun(doc, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: document generation, both engines, across sizes ----

func benchDocgen(b *testing.B, engine string, users int) {
	model := workload.BuildITModel(workload.Config{
		Seed: int64(users), Users: users, Systems: 5, Servers: 6, Programs: 8, Docs: 6})
	tpl := workload.ScalingTemplate(4)
	nat := native.New()
	xqg := xqgen.New()
	if _, err := xqg.Generate(model, tpl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if engine == "native" {
			_, err = nat.Generate(model, tpl)
		} else {
			_, err = xqg.Generate(model, tpl)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDocgenNative(b *testing.B) {
	for _, users := range []int{10, 40, 120} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) { benchDocgen(b, "native", users) })
	}
}

func BenchmarkDocgenXQuery(b *testing.B) {
	for _, users := range []int{10, 40, 120} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) { benchDocgen(b, "xquery", users) })
	}
}

// ---- E6: the calculus, native vs via-XQuery ----

const benchQuery = `
<query>
  <start type="User"/>
  <follow relation="likes"/>
  <follow relation="uses" target-type="Program"/>
  <distinct/>
  <sort by="label"/>
</query>`

func calculusFixture(b *testing.B, users int) (*calculus.Query, *workload.Config) {
	b.Helper()
	cfg := workload.Config{Seed: 11, Users: users, Systems: 6, Servers: 8, Programs: 15, Docs: 10}
	q, err := calculus.ParseXML(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	return q, &cfg
}

func BenchmarkCalculusNative(b *testing.B) {
	q, cfg := calculusFixture(b, 50)
	model := workload.BuildITModel(*cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.EvalNative(model); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCalculusXQueryWarm(b *testing.B) {
	q, cfg := calculusFixture(b, 50)
	model := workload.BuildITModel(*cfg)
	compiled, err := q.Compile()
	if err != nil {
		b.Fatal(err)
	}
	doc := model.ExportXML()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiled.Run(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCalculusXQueryCold(b *testing.B) {
	q, cfg := calculusFixture(b, 50)
	model := workload.BuildITModel(*cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.EvalXQuery(model); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: optimizer ablation ----

const optProgram = `
declare function local:f($n) {
  let $unused := (1 + 2) * 3
  let $k := $n + (2 * 2)
  return if ($k gt 10) then $k else local:f($k)
};
local:f(1)`

func benchOptLevel(b *testing.B, lvl xq.OptLevel) {
	q, err := xq.Compile(optProgram, xq.WithOptLevel(lvl), xq.WithTraceEffectful(true))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerO0(b *testing.B) { benchOptLevel(b, xq.O0) }
func BenchmarkOptimizerO2(b *testing.B) { benchOptLevel(b, xq.O2) }

// ---- E8: set encodings ----

func benchSet(b *testing.B, src string, n int) {
	q := xq.MustCompile(src)
	vars := map[string]xq.Sequence{"n": xq.Singleton(xq.Integer(n))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(nil, nil, xq.WithVars(vars)); err != nil {
			b.Fatal(err)
		}
	}
}

const seqSetSrc = `
declare variable $n external;
let $set := for $i in 1 to $n return concat("k", $i)
let $hits := for $i in 1 to $n where concat("k", $i) = $set return 1
return count($hits)`

const xmlSetSrc = `
declare variable $n external;
let $set := <set>{for $i in 1 to $n return <e v="k{$i}"/>}</set>
let $hits := for $i in 1 to $n where exists($set/e[@v = concat("k", $i)]) return 1
return count($hits)`

func BenchmarkSetsSequence(b *testing.B)   { benchSet(b, seqSetSrc, 64) }
func BenchmarkSetsXMLEncoded(b *testing.B) { benchSet(b, xmlSetSrc, 64) }

// ---- engine plumbing: parse throughput ----
// (Compile throughput lives in bench_interp_test.go's Compile family.)

func BenchmarkParseModelXML(b *testing.B) {
	model := workload.BuildITModel(workload.Config{Seed: 1, Users: 50})
	src := model.ExportXMLString()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation: optimizer levels under the XQuery generator ----

func benchXqgenAtLevel(b *testing.B, lvl xq.OptLevel) {
	model := workload.BuildITModel(workload.Config{Seed: 13, Users: 12})
	tpl := workload.ParseTemplate(workload.QuickTemplate)
	gen := xqgen.New(xq.WithOptLevel(lvl))
	if _, err := gen.Generate(model, tpl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(model, tpl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXqgenOptO0(b *testing.B) { benchXqgenAtLevel(b, xq.O0) }
func BenchmarkXqgenOptO2(b *testing.B) { benchXqgenAtLevel(b, xq.O2) }

// ---- E11 ablation: error-value convention vs try/catch ----

func BenchmarkErrorChainTryCatch(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := xq.MustCompile(experiments.TryCatchChainProgram(k))
			doc := xmltree.NewDocument()
			root := xmltree.NewElement("root")
			doc.AppendChild(root)
			cur := root
			for i := 1; i <= k; i++ {
				c := xmltree.NewElement(fmt.Sprintf("c%d", i))
				cur.AppendChild(c)
				cur = c
			}
			vars := map[string]xq.Sequence{"doc": xq.Singleton(xq.NewNodeItem(doc))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(nil, nil, xq.WithVars(vars)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
