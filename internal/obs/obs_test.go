package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNopTracerAllocatesNothing(t *testing.T) {
	ev := Event{Kind: TraceHit, Name: "x=", Values: []string{"x=", "5"}}
	allocs := testing.AllocsPerRun(1000, func() {
		Nop.Emit(ev)
	})
	if allocs != 0 {
		t.Fatalf("Nop.Emit allocated %.1f times per call, want 0", allocs)
	}
}

func TestTraceFuncForwardsOnlyLiveTraceHits(t *testing.T) {
	var got [][]string
	tr := TraceFunc(func(values []string) { got = append(got, values) })
	tr.Emit(Event{Kind: PhaseBegin, Name: "eval"})
	tr.Emit(Event{Kind: ClauseIter, Name: "for $x", Iter: 1})
	tr.Emit(Event{Kind: TraceHit, Values: []string{"a", "b"}})
	tr.Emit(Event{Kind: TraceHit, Values: []string{"gone"}, Elided: true})
	if len(got) != 1 || got[0][0] != "a" || got[0][1] != "b" {
		t.Fatalf("TraceFunc forwarded %v, want only the live trace hit", got)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Emit(Event{Kind: FuncCall, Name: "local:f"})
			}
		}()
	}
	wg.Wait()
	if n := len(c.OfKind(FuncCall)); n != 800 {
		t.Fatalf("collected %d events, want 800", n)
	}
	c.Reset()
	if len(c.Events()) != 0 {
		t.Fatal("Reset should discard events")
	}
}

func TestLogTracerFormat(t *testing.T) {
	var b strings.Builder
	tr := NewLogTracer(&b)
	tr.Emit(Event{Kind: TraceHit, Line: 2, Col: 5, Values: []string{"x=", "5"}})
	tr.Emit(Event{Kind: PhaseEnd, Name: "eval", Elapsed: 3 * time.Millisecond})
	tr.Emit(Event{Kind: TraceHit, Values: []string{"gone"}, Elided: true})
	out := b.String()
	for _, want := range []string{
		"trace @2:5: x= 5",
		"phase-end eval (3ms)",
		"[elided by dead-code elimination]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
}

func TestEvalStatsString(t *testing.T) {
	s := EvalStats{
		Steps: 412, MaxSteps: 1000,
		Nodes:       7,
		OutputBytes: 123,
		Wall:        1200 * time.Microsecond,
		TraceEvents: 2,
	}
	out := s.String()
	for _, want := range []string{"steps=412/1000", "nodes=7", "output-bytes=123", "trace-events=2", "plan-cache=miss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats string missing %q: %s", want, out)
		}
	}
	s.PlanCacheHit = true
	if !strings.Contains(s.String(), "plan-cache=hit") {
		t.Fatalf("stats string should report cache hit: %s", s.String())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(10 * time.Second) // overflow bucket
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if snap.Sum < 10*time.Second {
		t.Fatalf("sum = %v, want >= 10s", snap.Sum)
	}
	if snap.Mean() < 3*time.Second {
		t.Fatalf("mean = %v, want >= 3s", snap.Mean())
	}
	total := int64(0)
	sawOverflow := false
	for _, b := range snap.Buckets {
		total += b.Count
		if b.LE == 0 {
			sawOverflow = true
		}
	}
	if total != 3 || !sawOverflow {
		t.Fatalf("buckets = %+v, want 3 observations incl. overflow", snap.Buckets)
	}
}

func TestRegistrySnapshotAndExpvar(t *testing.T) {
	r := &Registry{}
	r.Evals.Add(3)
	r.EvalErrors.Add(1)
	r.LimitHits.Add(1)
	r.PlanCacheHits.Add(5)
	r.EvalLatency.Observe(time.Millisecond)
	snap := r.Snapshot()
	if snap.Evals != 3 || snap.EvalErrors != 1 || snap.LimitHits != 1 || snap.PlanCacheHits != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.EvalLatency.Count != 1 {
		t.Fatalf("latency count = %d, want 1", snap.EvalLatency.Count)
	}
	// The default registry publishes without panicking, idempotently.
	PublishExpvar()
	PublishExpvar()
	if MetricsSnapshot().Evals < 0 {
		t.Fatal("unreachable")
	}
}
