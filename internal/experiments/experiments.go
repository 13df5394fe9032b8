// Package experiments regenerates every empirical artifact of the paper:
// its illustrative tables (sequence indexing, attribute folding, the
// row/col table) and its quantified or quantifiable claims (error-handling
// blowup, multi-phase overhead, XQuery-vs-native runtime, the trace
// dead-code anecdote, set-encoding costs, engine parity). The lopsided-bench
// command prints these reports; EXPERIMENTS.md records them against the
// paper's statements.
package experiments

import (
	"fmt"
	"sort"
	"time"
)

// Report is one experiment's output.
type Report struct {
	ID      string // e.g. "E1"
	Title   string
	Paper   string // what the paper says
	Text    string // the regenerated table/series
	Verdict string // one-line comparison against the paper's claim
}

// runner produces a report. A runner that cannot complete returns an
// error instead of a report; it must not panic — residual panics are
// contained by Run so one broken experiment cannot take down the whole
// lopsided-bench sweep.
type runner struct {
	id    string
	title string
	run   func() (Report, error)
}

var registry []runner

func register(id, title string, run func() (Report, error)) {
	registry = append(registry, runner{id: id, title: title, run: run})
	// Keep a stable, human order (E1..E11) regardless of the per-file
	// init order.
	sort.Slice(registry, func(i, j int) bool {
		return idKey(registry[i].id) < idKey(registry[j].id)
	})
}

// idKey orders experiment IDs by their number.
func idKey(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// IDs lists registered experiment IDs in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	return out
}

// Run executes one experiment by ID. A failing experiment returns an
// error; a panicking one is contained and reported as an error too, so
// callers iterating over IDs can always continue to the next experiment.
func Run(id string) (Report, error) {
	for _, r := range registry {
		if r.id == id {
			return safeRun(r)
		}
	}
	return Report{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// safeRun executes one runner with the panic net in place.
func safeRun(r runner) (rep Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: %s (%s) panicked: %v", r.id, r.title, p)
		}
	}()
	rep, err = r.run()
	if err != nil {
		err = fmt.Errorf("experiments: %s (%s): %w", r.id, r.title, err)
	}
	return rep, err
}

// Outcome is one experiment's result in a RunAll sweep: either a report
// or the error that stopped it.
type Outcome struct {
	ID     string
	Report Report
	Err    error
}

// RunAll executes every experiment in registration order, continuing
// past failures and recording each result.
func RunAll() []Outcome {
	out := make([]Outcome, 0, len(registry))
	for _, r := range registry {
		rep, err := safeRun(r)
		out = append(out, Outcome{ID: r.id, Report: rep, Err: err})
	}
	return out
}

// String renders a report for the terminal.
func (r Report) String() string {
	return fmt.Sprintf("== %s: %s ==\npaper: %s\n\n%s\nverdict: %s\n",
		r.ID, r.Title, r.Paper, r.Text, r.Verdict)
}

// medianTime runs f `runs` times and returns the median duration — stable
// enough for the shape comparisons the reproduction needs.
func medianTime(runs int, f func()) time.Duration {
	if runs < 1 {
		runs = 1
	}
	ds := make([]time.Duration, runs)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%dµs", d.Microseconds())
}
