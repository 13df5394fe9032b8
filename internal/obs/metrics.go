package obs

// Process-wide metrics: monotonic counters and latency histograms for the
// engine as a whole, complementing the per-evaluation EvalStats. The
// registry is cheap enough to update unconditionally (one atomic add per
// counter) and is exported two ways: MetricsSnapshot() for programmatic
// consumers and expvar (under the key "lopsided_engine") for anything that
// already scrapes /debug/vars.

import (
	"expvar"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i
// counts observations with ceil(log2(us)) == i, i.e. bucket upper bounds of
// 1us, 2us, 4us … ~8.6s; slower observations land in the overflow bucket.
const histBuckets = 24

// Histogram is a fixed-bucket power-of-two latency histogram, safe for
// concurrent observation.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	count  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d / time.Microsecond)
	idx := bits.Len64(us) // 0 for <1us, 1 for 1us, … monotone in d
	if idx > histBuckets {
		idx = histBuckets
	}
	h.counts[idx].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// HistogramBucket is one bucket of a histogram snapshot: the inclusive
// upper bound and the count of observations at or under it that are above
// the previous bucket's bound.
type HistogramBucket struct {
	LE    time.Duration // upper bound; 0 on the overflow bucket
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets []HistogramBucket // only buckets with nonzero counts
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot copies the histogram's current state. It is safe to call while
// observations continue; the result is approximately consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := time.Duration(0)
		if i < histBuckets {
			le = time.Microsecond << uint(i) / 2
			if i == 0 {
				le = time.Microsecond
			}
		}
		out.Buckets = append(out.Buckets, HistogramBucket{LE: le, Count: n})
	}
	return out
}

// Registry is the process-wide metrics surface. All fields are safe for
// concurrent update.
type Registry struct {
	// Compilation.
	Compiles       atomic.Int64 // successful or failed parse→compile runs
	CompileErrors  atomic.Int64
	CompileLatency Histogram

	// Plan cache.
	PlanCacheHits      atomic.Int64
	PlanCacheMisses    atomic.Int64
	PlanCacheEvictions atomic.Int64

	// Evaluation.
	Evals       atomic.Int64
	EvalErrors  atomic.Int64 // all failed evaluations, limit hits included
	LimitHits   atomic.Int64 // evaluations stopped by a LOPS0001-0005 budget
	EvalLatency Histogram

	// Tracing.
	TraceEvents atomic.Int64 // live fn:trace hits delivered to hosts

	// Sharing is the copy-on-write tree layer's traffic, counted by
	// xmltree: lazy clones handed out, and one-level materializations that
	// broke sharing.
	Sharing struct {
		CowClones, CowBreaks atomic.Int64
	}
	// Index is the access-path layer's traffic, counted by xmltree/index:
	// index section builds and the wall time they took, probes served from
	// an index, and probes that fell back to a tree walk.
	Index struct {
		Builds, BuildNanos, Hits, Fallbacks atomic.Int64
	}
	// Stream is the reader-parse traffic, counted by xmltree: full reader
	// parses, projection-pruned parses, input bytes scanned by both, and the
	// projected parses' element retain/prune decisions.
	Stream struct {
		ReaderParses, ProjectedParses                  atomic.Int64
		BytesScanned, ElementsRetained, ElementsPruned atomic.Int64
	}
}

// SharingStats is the Snapshot form of Registry.Sharing. PoolHits and
// PoolMisses counted the document-order sort's scratch pools; PR 22 removed
// the last of them, and the two fields stay, always 0, because the key set
// of /metrics is pinned (envelope_pinned.golden).
type SharingStats struct {
	CowClones  int64
	CowBreaks  int64
	PoolHits   int64
	PoolMisses int64
}

// IndexStats is the Snapshot form of Registry.Index.
type IndexStats struct {
	Builds     int64
	BuildNanos int64
	Hits       int64
	Fallbacks  int64
}

// StreamStats is the Snapshot form of Registry.Stream.
type StreamStats struct {
	ReaderParses     int64
	ProjectedParses  int64
	BytesScanned     int64
	ElementsRetained int64
	ElementsPruned   int64
}

// Snapshot is a point-in-time copy of a Registry, the MetricsSnapshot()
// result type.
type Snapshot struct {
	Compiles, CompileErrors                            int64
	PlanCacheHits, PlanCacheMisses, PlanCacheEvictions int64
	Evals, EvalErrors, LimitHits                       int64
	TraceEvents                                        int64
	Sharing                                            SharingStats
	Index                                              IndexStats
	Stream                                             StreamStats
	CompileLatency, EvalLatency                        HistogramSnapshot
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot{
		Sharing: SharingStats{
			CowClones: r.Sharing.CowClones.Load(),
			CowBreaks: r.Sharing.CowBreaks.Load(),
		},
		Index: IndexStats{
			Builds:     r.Index.Builds.Load(),
			BuildNanos: r.Index.BuildNanos.Load(),
			Hits:       r.Index.Hits.Load(),
			Fallbacks:  r.Index.Fallbacks.Load(),
		},
		Stream: StreamStats{
			ReaderParses:     r.Stream.ReaderParses.Load(),
			ProjectedParses:  r.Stream.ProjectedParses.Load(),
			BytesScanned:     r.Stream.BytesScanned.Load(),
			ElementsRetained: r.Stream.ElementsRetained.Load(),
			ElementsPruned:   r.Stream.ElementsPruned.Load(),
		},
		Compiles:           r.Compiles.Load(),
		CompileErrors:      r.CompileErrors.Load(),
		PlanCacheHits:      r.PlanCacheHits.Load(),
		PlanCacheMisses:    r.PlanCacheMisses.Load(),
		PlanCacheEvictions: r.PlanCacheEvictions.Load(),
		Evals:              r.Evals.Load(),
		EvalErrors:         r.EvalErrors.Load(),
		LimitHits:          r.LimitHits.Load(),
		TraceEvents:        r.TraceEvents.Load(),
		CompileLatency:     r.CompileLatency.Snapshot(),
		EvalLatency:        r.EvalLatency.Snapshot(),
	}
}

// std is the default registry every engine entry point reports into.
var std = &Registry{}

// Default returns the process-wide registry.
func Default() *Registry { return std }

// MetricsSnapshot copies the process-wide registry: the programmatic twin
// of the expvar export.
func MetricsSnapshot() Snapshot { return std.Snapshot() }

var publishOnce sync.Once

// PublishExpvar exposes the default registry under the expvar key
// "lopsided_engine" (visible at /debug/vars on hosts serving the default
// mux). Idempotent; the public xq package calls it on first use.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("lopsided_engine", expvar.Func(func() any {
			return MetricsSnapshot()
		}))
	})
}
