package main

// window.go turns a log of finished operations into the end-to-end
// metrics. A run is a warm-up followed by windows of a couple of seconds;
// every statistic is computed per window and the run reports its best
// window: the highest rate, the lowest median, 95th percentile and CPU per
// operation. The reference box is shared and alternates, every few seconds
// to minutes, between a quiet speed and one 15-25% slower; interference
// only ever slows a window down, so the best window estimates the quiet
// speed, which repeats from run to run, where the median over windows
// follows the neighbours (measured: README, Steadiness).

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

const nWindows = 10

func windowLength(seconds float64) time.Duration {
	return time.Duration(seconds / nWindows * float64(time.Second))
}

// opRec is one finished operation; bad says what was wrong with it, "" for
// a correct answer.
type opRec struct {
	class string
	end   time.Time
	lat   time.Duration
	bad   string
}

// edges records the window boundaries of a run and the CPU time consumed
// at each. The first mark ends the warm-up.
type edges struct {
	cpu   func() (time.Duration, error)
	at    []time.Time
	cpuAt []time.Duration
}

func (e *edges) mark() error {
	c, err := e.cpu()
	if err != nil {
		return fmt.Errorf("read cpu time: %w", err)
	}
	e.at = append(e.at, time.Now())
	e.cpuAt = append(e.cpuAt, c)
	return nil
}

// selfCPU is the user+system CPU time of this process, for the in-process
// workloads.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// selfPeakRSSMB is this process's resident-set high-water mark.
func selfPeakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// measured is what the windows of one untraced run add up to.
type measured struct {
	attempted, failed int64
	firstFailure      string
	opsPerS           []float64            // one value per window
	p50, p95, p99     []float64            // ms, per window
	cpuPerOp          []float64            // ms, per window
	classP50          map[string][]float64 // ms, per window, by class
	meanLat           float64              // ms, all windows pooled
}

// aggregate assigns each operation to the window its end time falls in.
// Operations that ended before the first edge (warm-up) or after the last
// count only toward attempted/failed.
func aggregate(e *edges, ops []opRec) (*measured, error) {
	if len(e.at) < 2 {
		return nil, fmt.Errorf("run recorded %d window edges, need at least 2", len(e.at))
	}
	m := &measured{classP50: map[string][]float64{}}
	sort.Slice(ops, func(i, j int) bool { return ops[i].end.Before(ops[j].end) })
	type bucket struct {
		lats    []float64
		byClass map[string][]float64
	}
	buckets := make([]bucket, len(e.at)-1)
	for i := range buckets {
		buckets[i].byClass = map[string][]float64{}
	}
	var pooled []float64
	for _, op := range ops {
		m.attempted++
		if op.bad != "" {
			m.failed++
			if m.firstFailure == "" {
				m.firstFailure = op.bad
			}
			continue
		}
		w := sort.Search(len(e.at), func(i int) bool { return e.at[i].After(op.end) }) - 1
		if w < 0 || w >= len(buckets) {
			continue
		}
		l := ms(op.lat)
		buckets[w].lats = append(buckets[w].lats, l)
		buckets[w].byClass[op.class] = append(buckets[w].byClass[op.class], l)
		pooled = append(pooled, l)
	}
	m.meanLat = mean(pooled)
	for w, b := range buckets {
		if len(b.lats) == 0 {
			return nil, fmt.Errorf("window %d completed no operation", w)
		}
		wall := e.at[w+1].Sub(e.at[w])
		n := float64(len(b.lats))
		m.opsPerS = append(m.opsPerS, n/wall.Seconds())
		m.p50 = append(m.p50, quantile(b.lats, 0.50))
		m.p95 = append(m.p95, quantile(b.lats, 0.95))
		m.p99 = append(m.p99, quantile(b.lats, 0.99))
		m.cpuPerOp = append(m.cpuPerOp, ms(e.cpuAt[w+1]-e.cpuAt[w])/n)
		for class, lats := range b.byClass {
			m.classP50[class] = append(m.classP50[class], median(lats))
		}
	}
	return m, nil
}

// outcome starts a workload's result from the windows' operation counts.
func (m *measured) outcome() *outcome {
	return &outcome{attempted: m.attempted, failed: m.failed, firstFailure: m.firstFailure, values: values{}}
}

// endToEndValues reports the best window of each statistic, the median of
// the set-ups, and how the windows spread.
func (m *measured) endToEndValues(setup []float64, peakRSSMB float64) (values, map[string]spread) {
	v := values{
		"setup_s":       median(setup),
		"ops_per_s":     highest(m.opsPerS),
		"lat_p50_ms":    lowest(m.p50),
		"lat_p95_ms":    lowest(m.p95),
		"cpu_ms_per_op": lowest(m.cpuPerOp),
		"peak_rss_mb":   peakRSSMB,
	}
	s := map[string]spread{
		"setup_s":       summarize(setup),
		"ops_per_s":     summarize(m.opsPerS),
		"lat_p50_ms":    summarize(m.p50),
		"lat_p95_ms":    summarize(m.p95),
		"cpu_ms_per_op": summarize(m.cpuPerOp),
	}
	return v, s
}

// classBest is the best window's median latency of one class, in ms.
func (m *measured) classBest(class string) float64 { return lowest(m.classP50[class]) }

// classNotes prints the per-class medians beside the end-to-end numbers;
// the traced pass reports them as metrics.
func (m *measured) classNotes(classes ...string) []string {
	var notes []string
	for _, class := range classes {
		if xs := m.classP50[class]; len(xs) > 0 {
			sp := summarize(xs)
			notes = append(notes, fmt.Sprintf("class %-11s p50 %10.4f ms  [median %.4f  q1 %.4f  q3 %.4f  n %d]",
				class, m.classBest(class), sp.median, sp.q1, sp.q3, sp.n))
		}
	}
	return notes
}
