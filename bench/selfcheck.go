package main

// selfcheck.go runs the benchmark as the driver does, one child process per
// workload and mode, so that peak memory is per workload. runAll prints
// every workload; selfCheck runs everything twice on two seeds and compares
// the two sets against the bounds in BENCHMARK.json.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runChild runs one workload in a child process, copies what it prints and
// returns its JSON result.
func runChild(e *env, workload string, seed int64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "0"
	if trace {
		mode = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(e.seconds), "--trace", mode)
	cmd.Dir = e.root
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	last := ""
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %s): %v", workload, seed, mode, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %v", workload, err)
	}
	return &r, nil
}

func runAll(e *env) int {
	code := 0
	for _, w := range workloadNames {
		if _, err := runChild(e, w, e.seed, e.trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// exactCounts are the per-layer metrics that count engine events over the
// traced pass's fixed operation sequence, so two passes on one seed must
// report the same value. Allocation counts are not here: they come from
// process-wide MemStats and pick up the runtime's own allocations.
var exactCounts = []string{
	"interp.steps_per_op.point", "interp.steps_per_op.scan", "interp.steps_per_op.build",
	"interp.index_hits_per_op", "interp.index_fallbacks_per_op",
	"xmltree.spine_nodes_per_update",
	"xqgen.steps_per_doc", "xqgen.nodes_per_doc", "interp.shape_elided_per_doc",
	"xmltree.cow_clones_per_doc", "xmltree.cow_breaks_per_doc",
	"xmltree.project_pruned_share",
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func selfCheck(e *env) int {
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	var problems []string
	for _, seed := range []int64{defaultSeed, alternateSeed} {
		for _, w := range workloadNames {
			var sets [2][2]*result // [set][trace]
			for set := 0; set < 2; set++ {
				for tr := 0; tr < 2; tr++ {
					r, err := runChild(e, w, seed, tr == 1)
					if err != nil {
						fmt.Fprintln(os.Stderr, "bench:", err)
						return 1
					}
					sets[set][tr] = r
				}
			}
			fmt.Printf("selfcheck %s seed %d\n", w, seed)
			for _, m := range bf.EndToEnd {
				a, b := sets[0][0].Metrics[m.Name].Value, sets[1][0].Metrics[m.Name].Value
				diff := math.Abs(b-a) / a
				verdict := "ok"
				if diff > m.Bound {
					verdict = "OUTSIDE BOUND"
					problems = append(problems, fmt.Sprintf("%s seed %d: %s differs by %.1f%% between two runs of the same code (bound %.0f%%)", w, seed, m.Name, diff*100, m.Bound*100))
				}
				fmt.Printf("  %-16s %14.4f %14.4f  diff %6.2f%%  bound %3.0f%%  %s\n", m.Name, a, b, diff*100, m.Bound*100, verdict)
			}
			ta, tb := sets[0][1].Metrics, sets[1][1].Metrics
			for _, name := range exactCounts {
				if ta[name].Value != tb[name].Value {
					problems = append(problems, fmt.Sprintf("%s seed %d: count %s is %v in one traced pass and %v in the other", w, seed, name, ta[name].Value, tb[name].Value))
				}
			}
			problems = append(problems, ledgerProblems(w, seed, tb)...)
		}
	}
	if len(problems) > 0 {
		fmt.Println("selfcheck FAILED:\n  " + strings.Join(problems, "\n  "))
		return 1
	}
	fmt.Println("selfcheck passed: both sets agree within the bounds, counts repeat exactly, the ledgers sum")
	return 0
}

// ledgerProblems checks that a traced pass's layer rows add up: no self time
// obtained by subtraction is negative, the compile stages leave a gap below
// 15%, and the traced operation takes within 15% of the untraced one where
// the two run the same way (docgen; the serve round trips are sent by one
// connection when traced and by two when not, see the README).
func ledgerProblems(workload string, seed int64, m map[string]metricValue) []string {
	var out []string
	bad := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf("%s seed %d: ", workload, seed)+fmt.Sprintf(format, args...))
	}
	nonNegative := func(names ...string) {
		for _, n := range names {
			if m[n].Value < 0 {
				bad("%s is negative (%v): its parent span is shorter than its children", n, m[n].Value)
			}
		}
	}
	switch workload {
	case "serve_hot":
		nonNegative("server.http_us", "server.envelope_us", "server.envelope_allocs")
	case "serve_churn":
		if g := m["xq.compile_gap_share"].Value; g >= 0.15 || g < -0.15 {
			bad("xq.compile_gap_share is %.3f, the compile ledger does not sum", g)
		}
	case "docgen":
		nonNegative("xqgen.other_ms")
		if o := m["bench.trace_overhead_share"].Value; math.Abs(o) > 0.15 {
			bad("a traced generate takes %.0f%% more than an untraced one", o*100)
		}
	}
	return out
}
