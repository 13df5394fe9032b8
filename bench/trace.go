package main

// trace.go is the traced pass's span recorder. This change measures the
// layers from outside: a span is one call the benchmark made into a layer's
// exported function, on the same input the workload uses. The calls of one
// operation share an op id and point at their parent layer, but they run one
// after another, not nested in time, so a layer's self time is its
// duration minus the durations of the spans that name it as parent.
// Spans stay in memory and are written out when the workload ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Op     int    `json:"op"`     // operations of one workload count from 1
	Name   string `json:"name"`   // the layer metric's prefix
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	// Counts taken at the same boundary (steps, allocations, bytes …).
	Counts map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call runs fn inside a span and returns the span's id.
func (t *tracer) call(name, class string, op, parent int, fn func()) int {
	id := t.begin(name, class, op, parent)
	fn()
	t.end(id)
	return id
}

// begin opens a span now; spans recorded before end can name it as parent.
func (t *tracer) begin(name, class string, op, parent int) int {
	now := time.Now()
	return t.add(name, class, op, parent, now, now)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// add records a span measured elsewhere.
func (t *tracer) add(name, class string, op, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Class: class,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) count(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] += v
}

// duration is the length of span id.
func (t *tracer) duration(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// durations returns the durations of the spans with this name and class
// ("" matches every class).
func (t *tracer) durations(name, class string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// medianOf is the median duration of the named spans, 0 when there are none.
func (t *tracer) medianOf(name, class string) time.Duration {
	ds := t.durations(name, class)
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// sumCount adds up one count over the named spans.
func (t *tracer) sumCount(name, key string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.Counts[key]
		}
	}
	return total
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(e *env, workload string) error {
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, e.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.out, "trace-"+workload+".json"), raw, 0o644)
}
