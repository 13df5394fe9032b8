package lopsided_test

// Benchmarks for the document-generation hot paths: E5's three generators
// (the paper's C2 "multiple copies of the entire output" tax) and batch
// generation throughput.

import (
	"fmt"
	"testing"

	"lopsided/internal/awb"
	"lopsided/internal/docgen"
	"lopsided/internal/docgen/native"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
)

// benchGenerate measures one generator on E5's "small" model under the
// system-context template, the three columns of E5 as testing.B rows.
func benchGenerate(b *testing.B, g docgen.Generator) {
	model := workload.BuildITModel(workload.Config{Seed: 2, Users: 25, Systems: 6, Servers: 8, Programs: 12, Docs: 9})
	tpl := workload.ParseTemplate(workload.SystemContextTemplate)
	if _, err := g.Generate(model, tpl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(model, tpl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeGenerate is the host-language rewrite: one mutable pass.
func BenchmarkNativeGenerate(b *testing.B) { benchGenerate(b, native.New()) }

// BenchmarkXqgenCopyPhases is the paper's pipeline: five XQuery phases,
// phases 2-5 each reconstructing the whole document.
func BenchmarkXqgenCopyPhases(b *testing.B) { benchGenerate(b, xqgen.NewCopyPhases()) }

// BenchmarkXqgenPhasePipeline is the production xqgen generator: the
// generation phase plus one update program applied in a single pass.
func BenchmarkXqgenPhasePipeline(b *testing.B) { benchGenerate(b, xqgen.New()) }

// benchBatchInputs builds a homogeneous batch of generation inputs: the
// small IT model rendered through the system-context template, batchSize
// documents per batch.
const benchBatchSize = 8

func benchBatchInputs() (docgen.Generator, *awb.Model, *xmltree.Node) {
	model := workload.BuildITModel(workload.Config{Seed: 1})
	tpl := workload.ParseTemplate(workload.SystemContextTemplate)
	return xqgen.New(), model, tpl
}

// BenchmarkGenerateBatchSequential is the pre-batch baseline: the same
// jobs run back-to-back through Generate. docs/sec reported as a custom
// metric.
func BenchmarkGenerateBatchSequential(b *testing.B) {
	g, model, tpl := benchBatchInputs()
	if _, err := g.Generate(model, tpl); err != nil {
		b.Fatal(err) // warm the plan cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBatchSize; j++ {
			if _, err := g.Generate(model, tpl); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*benchBatchSize/b.Elapsed().Seconds(), "docs/sec")
}

// BenchmarkGenerateBatch measures the batch pipeline at several worker
// counts. All jobs share one model, one template, and the cached plans;
// on a multi-core host docs/sec scales with the worker count, on a
// single-core host the numbers stay flat (the win there is the COW layer
// itself, visible in the Sequential baseline).
func BenchmarkGenerateBatch(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g, model, tpl := benchBatchInputs()
			if _, err := g.Generate(model, tpl); err != nil {
				b.Fatal(err) // warm the plan cache
			}
			jobs := make([]docgen.BatchJob, benchBatchSize)
			for i := range jobs {
				jobs[i] = docgen.BatchJob{Model: model, Template: tpl}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range docgen.GenerateBatch(g, jobs, workers) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*benchBatchSize/b.Elapsed().Seconds(), "docs/sec")
		})
	}
}
