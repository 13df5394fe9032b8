// Command awbgen generates a document from an AWB model and a template,
// with either generator implementation.
//
//	awbgen -demo -engine=xquery -indent
//	awbgen -model model.xml -template report.xml -engine=native -o out.html
//	awbgen -demo -degrade -fault-rate 0.3
//	awbgen -demo -engine=xquery -slow-query 10ms
//	awbgen -demo -count 16 -parallel 4 -o report.html
//
// -count generates the document N times through the batch pipeline
// (docgen.GenerateBatch) and -parallel bounds the worker goroutines; with
// -o the runs land in numbered files (report-0001.html, ...). The repeated
// runs share one model, one template, and the cached compiled plans, so
// this doubles as a quick throughput probe of the copy-on-write tree layer.
//
// -degrade switches the native generator into Accumulate mode: recoverable
// trouble (missing properties, bad selectors, injected faults) is marked
// inline with <span class="problem"> and listed on stderr instead of
// aborting the run. The XQuery generator cannot degrade — asking it to is
// an error, the paper's C1 lesson in exit-code form. -fault-rate injects
// deterministic property faults for exercising the degraded path.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lopsided/internal/awb"
	"lopsided/internal/cliutil"
	"lopsided/internal/docgen"
	"lopsided/internal/docgen/native"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/faultinject"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

func main() {
	modelFile := flag.String("model", "", "AWB model interchange XML")
	tplFile := flag.String("template", "", "document template XML")
	engine := flag.String("engine", "native", "generator implementation: native | xquery")
	out := flag.String("o", "", "output file (default stdout)")
	indent := flag.Bool("indent", false, "pretty-print the output")
	demo := flag.Bool("demo", false, "use the built-in demo model and template")
	degrade := flag.Bool("degrade", false, "accumulate recoverable trouble as inline problem markers instead of aborting")
	faultRate := flag.Float64("fault-rate", 0, "inject property-read faults with this probability (native engine)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for deterministic fault injection")
	slowQuery := flag.Duration("slow-query", 0, "log any xquery phase slower than this to stderr with its stats (0 = off)")
	count := flag.Int("count", 1, "generate the document this many times through the batch pipeline")
	parallel := flag.Int("parallel", 1, "worker goroutines for -count batches")
	flag.Parse()

	var (
		model *awb.Model
		tpl   *xmltree.Node
	)
	if *demo {
		model = workload.BuildITModel(workload.Config{Seed: 42, Users: 10, Systems: 4})
		tpl = workload.ParseTemplate(workload.SystemContextTemplate)
	} else {
		if *modelFile == "" || *tplFile == "" {
			fmt.Fprintln(os.Stderr, "usage: awbgen (-demo | -model m.xml -template t.xml) [-engine native|xquery] [-o out]")
			os.Exit(2)
		}
		mf, err := os.Open(*modelFile)
		if err != nil {
			fatal(err)
		}
		model, err = awb.ImportReader(mf)
		mf.Close()
		if err != nil {
			fatal(err)
		}
		tf, err := os.Open(*tplFile)
		if err != nil {
			fatal(err)
		}
		tpl, err = xmltree.ParseReaderWith(tf, xmltree.ParseOptions{TrimWhitespace: true})
		tf.Close()
		if err != nil {
			fatal(err)
		}
	}

	var gen docgen.Generator
	switch *engine {
	case "native":
		if *faultRate > 0 {
			inj := faultinject.New(*faultSeed, *faultRate)
			gen = native.NewWith(native.Options{
				PropFault: func(nodeID, prop string) error {
					return inj.Hit(fmt.Sprintf("property %q of node %s", prop, nodeID))
				},
			})
		} else {
			gen = native.New()
		}
	case "xquery":
		xg := xqgen.New()
		if *slowQuery > 0 {
			xg.SlowQueryLog(*slowQuery, func(phase int, st xq.EvalStats) {
				fmt.Fprintf(os.Stderr, "slow-query: phase %d took %v (%s)\n", phase, st.Wall.Round(time.Microsecond), st.String())
			})
		}
		gen = xg
	default:
		fatal(fmt.Errorf("unknown engine %q (native|xquery)", *engine))
	}

	mode := docgen.FailFast
	if *degrade {
		mode = docgen.Accumulate
	}
	if *count < 1 {
		fatal(fmt.Errorf("-count must be at least 1, got %d", *count))
	}

	if *count == 1 {
		res, err := gen.GenerateMode(model, tpl, mode)
		if err != nil {
			fatal(err)
		}
		if err := emit(res, *out, *indent); err != nil {
			fatal(err)
		}
		return
	}

	// Batch path: every job shares the one model and template (the
	// copy-on-write tree layer makes the shared template safe to render
	// from concurrently).
	jobs := make([]docgen.BatchJob, *count)
	for i := range jobs {
		jobs[i] = docgen.BatchJob{Model: model, Template: tpl, Mode: mode}
	}
	results := docgen.GenerateBatch(gen, jobs, *parallel)
	// Per-job failures report through the shared structured error surface —
	// each line carries the job index plus the engine's code/position — and
	// the process exits with the worst classification across jobs, so a
	// batch whose members all tripped dynamic errors exits 4, not a generic
	// 1 ("N of M runs failed" told scripts nothing).
	failed, worst := 0, cliutil.ExitOK
	for i, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s\n", strings.Replace(
				cliutil.Format("awbgen", r.Err), "awbgen:", fmt.Sprintf("awbgen: run %d:", i), 1))
			if c := cliutil.Classify(r.Err); c > worst {
				worst = c
			}
			continue
		}
		if err := emit(r.Result, numberedPath(*out, i), *indent); err != nil {
			fatal(err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "awbgen: %d of %d runs failed\n", failed, *count)
		os.Exit(worst)
	}
}

// emit writes one generation result to path (stdout when empty) and reports
// its accumulated problems on stderr.
func emit(res *docgen.Result, path string, indent bool) error {
	text := res.DocString()
	if indent {
		text = xmltree.Indent(res.Document)
	}
	if path == "" {
		fmt.Println(text)
	} else if err := os.WriteFile(path, []byte(text+"\n"), 0o644); err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	return nil
}

// numberedPath turns "report.html" into "report-0003.html" for batch run i;
// an empty path (stdout) stays empty.
func numberedPath(path string, i int) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s-%04d%s", strings.TrimSuffix(path, ext), i, ext)
}

func fatal(err error) {
	os.Exit(cliutil.Report(os.Stderr, "awbgen", err))
}
