package main

// metrics.go names every metric the benchmark reports and holds the small
// statistics the workloads share. BENCHMARK.json lists the same names; the
// test in this directory keeps the two in step.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

type metricDef struct{ name, unit string }

var workloadNames = []string{"serve_hot", "serve_churn", "docgen", "stream_ladder"}

// endToEnd is what a user of the system sees, reported by every workload
// with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by the traced pass. A workload reports 0 for the
// layers it does not reach (the README says which workload owns which).
var perLayer = []metricDef{
	// all workloads
	{"bench.fail_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.calibration_ms", "ms"},

	// serve_hot and serve_churn
	{"server.http_us", "us"},
	{"server.envelope_us", "us"},
	{"server.envelope_allocs", "count"},
	{"server.class_p50_us.point", "us"},
	{"server.class_p50_us.scan", "us"},
	{"server.class_p50_us.build", "us"},
	{"server.class_p50_us.cold", "us"},
	{"server.class_p50_us.transform", "us"},
	{"server.lat_p99_ms", "ms"},
	{"server.plan_hit_share", "ratio"},
	{"server.shed_share", "ratio"},
	{"store.open_ms", "ms"},
	{"store.reload_ms", "ms"},
	{"xmltree.index_build_ms", "ms"},
	{"xmltree.serialize_mb_s", "MB/s"},
	{"interp.eval_us.point", "us"},
	{"interp.eval_us.scan", "us"},
	{"interp.eval_us.build", "us"},
	{"interp.eval_us.cold", "us"},
	{"interp.eval_allocs.point", "count"},
	{"interp.eval_allocs.scan", "count"},
	{"interp.eval_allocs.build", "count"},
	{"interp.steps_per_op.point", "count"},
	{"interp.steps_per_op.scan", "count"},
	{"interp.steps_per_op.build", "count"},
	{"interp.index_hits_per_op", "count"},
	{"interp.index_fallbacks_per_op", "count"},
	{"lexer.mb_s", "MB/s"},
	{"parser.parse_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"shapes.infer_us", "us"},
	{"interp.compile_us", "us"},
	{"xq.compile_us", "us"},
	{"xq.compile_allocs", "count"},
	{"xq.compile_gap_share", "ratio"},
	{"xmltree.spine_nodes_per_update", "count"},

	// docgen
	{"docgen.xq_native_ratio", "ratio"},
	{"awb.export_ms", "ms"},
	{"xqgen.compile_ms", "ms"},
	{"xqgen.phase1_ms", "ms"},
	{"xqgen.update_ms", "ms"},
	{"xqgen.other_ms", "ms"},
	{"xqgen.steps_per_doc", "count"},
	{"xqgen.nodes_per_doc", "count"},
	{"xqgen.allocs_per_doc", "count"},
	{"xqgen.bytes_per_doc", "B"},
	{"interp.shape_elided_per_doc", "count"},
	{"xmltree.cow_clones_per_doc", "count"},
	{"xmltree.cow_breaks_per_doc", "count"},
	{"docgen.serialize_ms", "ms"},
	{"native.gen_ms", "ms"},
	{"docgen.batch_docs_per_s", "1/s"},

	// stream_ladder
	{"stream.full_mb_s", "MB/s"},
	{"stream.projected_mb_s", "MB/s"},
	{"stream.materialize_mb_s", "MB/s"},
	{"xmltree.scan_mb_s", "MB/s"},
	{"xmltree.scan_allocs_per_elem", "count"},
	{"xmltree.build_mb_s", "MB/s"},
	{"xmltree.build_allocs_per_elem", "count"},
	{"xmltree.parse_mb_s", "MB/s"},
	{"xmltree.project_mb_s", "MB/s"},
	{"xmltree.project_pruned_share", "ratio"},
	{"xmltree.freeze_ms", "ms"},
	{"stream.sax_allocs_per_elem", "count"},
	{"stream.live_heap_b.full", "B"},
	{"stream.live_heap_b.projected", "B"},
	{"stream.live_heap_b.materialize", "B"},
	{"project.analysis_us", "us"},
}

// values maps metric name to measured value.
type values map[string]float64

// complete returns the values of defs in order, with 0 for names v lacks,
// and an error for a name v has that defs does not know.
func (v values) complete(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not registered", name)
		}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ---- statistics ----

// quantile returns the q-quantile of xs by linear interpolation; xs need
// not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowest and highest pick the best window of a run: the lowest time, the
// highest rate (see window.go for why it is the best and not the median).
func lowest(xs []float64) float64  { return quantile(xs, 0) }
func highest(xs []float64) float64 { return quantile(xs, 1) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// spread is a printed summary of one statistic over the run's windows.
type spread struct {
	median, q1, q3 float64
	n              int
}

func summarize(xs []float64) spread {
	return spread{median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ---- timing calls into a layer ----

// callCost is what repeated calls of one function cost.
type callCost struct {
	median time.Duration
	allocs float64 // heap allocations per call, mean
}

// allocsAround returns the heap allocations made while fn runs. It must run
// on a quiet process: the count is a process-wide MemStats delta.
func allocsAround(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// timeCalls calls fn at least minCalls times, and for at least budget unless
// maxCalls is reached first, and reports the median call time and the mean
// allocations.
func timeCalls(minCalls, maxCalls int, budget time.Duration, fn func()) callCost {
	fn() // first call pays lazy initialisation
	durs := make([]time.Duration, 0, maxCalls)
	allocs := allocsAround(func() {
		start := time.Now()
		for len(durs) < maxCalls && (len(durs) < minCalls || time.Since(start) < budget) {
			t := time.Now()
			fn()
			durs = append(durs, time.Since(t))
		}
	})
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return callCost{median: durs[len(durs)/2], allocs: allocs / float64(len(durs))}
}

// calibrationMs times a fixed piece of plain Go work of the engine's
// character (small allocations, map and string traffic, a sort) and returns
// the median of five. The reference box's speed moves by a tenth and more
// between runs of one binary; this number tells a slow machine from a slow
// change. It gates nothing.
func calibrationMs() float64 {
	var took []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		seen := make(map[string]int)
		var keys []string
		for i := 0; i < 200000; i++ {
			k := strconv.Itoa(i * 7919 % 100003)
			if seen[k] == 0 {
				keys = append(keys, k)
			}
			seen[k] += i
		}
		sort.Strings(keys)
		took = append(took, ms(time.Since(start)))
	}
	return median(took)
}

func mbPerS(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}
