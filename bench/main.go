// Command bench is the repository's benchmark: four workloads that cover
// the three things the system does (answer an xqd request, generate an AWB
// document through xqgen, scan a large file through the streaming ladder),
// each checked against answers the engine did not produce.
//
//	go run ./bench --workload serve_hot --seed 1 --seconds 20 --trace 0
//	go run ./bench --workload docgen --seed 1 --seconds 20 --trace 1
//	go run ./bench -seed 1            # every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace 1   # every workload, per-layer metrics
//	go run ./bench -selfcheck         # everything twice, compared
//
// With --workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. README.md in this
// directory defines every metric and says why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is what a workload needs to know about the run.
type env struct {
	root    string  // module root, where go.mod is
	out     string  // bench/out: binaries, data directories, traces
	seed    int64   // every generated input derives from it
	seconds float64 // length of the measured windows together
	trace   bool
	smoke   bool // tests: one set-up, no warm-up, tiny layer budgets
}

// setUps returns how many times a workload repeats its set-up for setup_s:
// the n it asks for, or once in a smoke run.
func (e *env) setUps(n int) int {
	if e.smoke {
		return 1
	}
	return n
}

// warm returns the warm-up a workload asked for, or none in a smoke run.
func (e *env) warm(d time.Duration) time.Duration {
	if e.smoke {
		return 0
	}
	return d
}

// layerBudget is how long the traced pass may spend timing one layer.
func (e *env) layerBudget() time.Duration {
	if e.smoke {
		return 10 * time.Millisecond
	}
	return time.Second
}

// outcome is one workload's result.
type outcome struct {
	attempted, failed int64
	firstFailure      string
	values            values
	spreads           map[string]spread // how the windows spread, printed beside the value
	notes             []string
}

// check counts one more verified answer; bad is "" or what was wrong.
func (o *outcome) check(bad string) {
	o.attempted++
	if bad != "" {
		o.failed++
		if o.firstFailure == "" {
			o.firstFailure = bad
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run one workload (serve_hot, serve_churn, docgen, stream_ladder) and print its JSON result; empty runs all four")
	seed := flag.Int64("seed", defaultSeed, "seed for every generated input")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured windows together")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and its per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run everything twice, on the default and the alternate seed, and compare the two sets")
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] | -selfcheck")
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out"), seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *selfcheck:
		return selfCheck(e)
	case *workload == "":
		return runAll(e)
	}
	o, err := runWorkload(e, *workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	return report(e, *workload, o)
}

const (
	defaultSeed    = 20050614 // SIGMOD 2005
	alternateSeed  = 7
	defaultSeconds = 20
)

func runWorkload(e *env, name string) (*outcome, error) {
	var o *outcome
	var err error
	switch name {
	case "serve_hot", "serve_churn":
		o, err = serveWorkload(e, name)
	case "docgen":
		o, err = docgenWorkload(e)
	case "stream_ladder":
		o, err = streamWorkload(e)
	default:
		err = fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames, ", "))
	}
	if err == nil && e.trace {
		o.values["bench.fail_share"] = float64(o.failed) / float64(o.attempted)
		o.values["bench.calibration_ms"] = calibrationMs()
	}
	return o, err
}

// moduleRoot walks up from the working directory to the lopsided module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module lopsided\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the lopsided module (no go.mod found)")
		}
		dir = parent
	}
}

// result is the JSON line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric by name with its unit, then the JSON line.
func report(e *env, workload string, o *outcome) int {
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	metrics, err := o.values.complete(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", workload, e.seed, e.seconds, e.trace)
	for _, d := range defs {
		if _, measured := o.values[d.name]; !measured {
			continue // a layer this workload does not reach
		}
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.name, o.values[d.name], d.unit)
		if sp, ok := o.spreads[d.name]; ok {
			line += fmt.Sprintf("  [median %.4f  q1 %.4f  q3 %.4f  n %d]", sp.median, sp.q1, sp.q3, sp.n)
		}
		fmt.Println(line)
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  attempted %d  failed %d\n", o.attempted, o.failed)
	if o.firstFailure != "" {
		fmt.Println("  first failure:", o.firstFailure)
	}
	line, err := json.Marshal(result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	fmt.Println(string(line))
	if o.failed != 0 {
		return 1
	}
	return 0
}
