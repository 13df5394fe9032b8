package server

// chaos_test.go is the daemon's chaos harness: a real HTTP server, offered
// load at 4× the admission concurrency, a deliberately mixed workload
// (cheap, expensive, malformed, batch-class, over-budget queries plus
// concurrent reloads), and seeded fault injection on the query and reload
// paths. Throughout the storm it asserts the robustness invariants the
// design promises:
//
//   - every >= 400 response carries a structured error body (unless the
//     fault injector itself truncated it, which it marks);
//   - every 503 carries Retry-After;
//   - /healthz answers 200 the whole time;
//   - the server_ counters are monotonic;
//   - shutdown drains within the grace period;
//   - no goroutines leak.
//
// The fault rate is a package flag so CI can turn the screws:
//
//	go test -race ./internal/server/ -run TestChaos -args -fault-rate=0.2

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lopsided/internal/faultinject"
)

var faultRate = flag.Float64("fault-rate", 0.2, "chaos harness fault-injection rate (0..1)")

// chaosViolations collects invariant breaches from all worker goroutines.
type chaosViolations struct {
	mu   sync.Mutex
	list []string
}

func (v *chaosViolations) addf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.list) < 20 { // enough to diagnose, not enough to drown
		v.list = append(v.list, fmt.Sprintf(format, args...))
	}
}

func (v *chaosViolations) report(t *testing.T) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.list {
		t.Error(s)
	}
}

func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	// Store loads see injected faults (half transient, so the retry policy
	// earns its keep); the HTTP query/reload paths get their own injector.
	storeInj := faultinject.New(42, *faultRate/4).Transient(0.5)
	httpInj := faultinject.New(1337, *faultRate).
		Transient(0.5).
		Latency(*faultRate/4, 2*time.Millisecond).
		Partial(*faultRate / 2)

	cfg := Config{
		MaxConcurrent: 4,
		MaxQueue:      8,
		MaxWait:       100 * time.Millisecond,
		DrainGrace:    3 * time.Second,
		Injector:      storeInj,
		ReloadRetry: faultinject.Backoff{
			Attempts: 4, Base: time.Millisecond, Max: 10 * time.Millisecond,
			Jitter: 0.5, Seed: 7,
		},
	}
	s, err := New(writeTestCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Faults hit the expensive paths (/query, /reload); the probe endpoints
	// reach the daemon directly so their invariants stay meaningful.
	inner := s.Handler()
	faulty := faultinject.Handler(inner, httpInj)
	mux := http.NewServeMux()
	mux.Handle("/query", faulty)
	mux.Handle("/reload", faulty)
	mux.Handle("/", inner)
	ts := httptest.NewServer(mux)
	client := ts.Client()

	var viol chaosViolations

	// checkResponse enforces the wire invariants on one response.
	checkResponse := func(op string, resp *http.Response) {
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		truncated := resp.Header.Get("X-Fault-Injected") == "partial"
		if resp.StatusCode >= 400 && !truncated {
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code == "" {
				viol.addf("%s: status %d without structured error body: %q", op, resp.StatusCode, body)
				return
			}
			if resp.StatusCode >= 500 && eb.Error.Message == "" {
				viol.addf("%s: 5xx with empty message", op)
			}
		}
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			viol.addf("%s: 503 without Retry-After", op)
		}
	}

	post := func(path string, payload string) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(payload))
		if err != nil {
			// Transport-level injected faults and torn reads are part of the
			// weather, not a violation.
			return
		}
		checkResponse("POST "+path, resp)
	}

	// The mixed workload: 4× the admission concurrency, each worker running
	// a deterministic rotation of request shapes.
	workers := 4 * cfg.MaxConcurrent
	const perWorker = 30
	queries := []string{
		`{"query":"count(/collection//book)","collection":"library"}`,
		`{"query":"count(for $i in 1 to 200000 return ())"}`, // expensive: holds a slot ~100ms
		`{"query":"for $t in /collection//title return string($t)","collection":"library","tenant":"acme"}`,
		`{"query":"sum(1 to 1000)","class":"batch"}`,
		`{"query":"count(for $i in 1 to 1000000 return ())","max_steps":1000}`, // LOPS0002
		`{"query":"for $x in"}`,              // syntax error
		`{"query":"1","collection":"nope"}`,  // 404
		`{"query":"fn:error()"}`,             // dynamic error
		`this is not json`,                   // 400
		`{"query":"1 + 1","timeout_ms":"5"}`, // type-mismatched hint: 400
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i%10 == 5 {
					post("/reload", "")
					continue
				}
				post("/query", queries[(w+i)%len(queries)])
			}
		}(w)
	}

	// Liveness prober: /healthz must answer 200 for the whole run.
	stopProbe := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-stopProbe:
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := client.Get(ts.URL + "/healthz")
			if err != nil {
				viol.addf("healthz unreachable: %v", err)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				viol.addf("healthz = %d during chaos", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Metrics sampler: every server_ counter must be monotonic.
	gauges := map[string]bool{"server_queue_depth": true, "server_in_flight": true}
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		prev := map[string]float64{}
		for {
			select {
			case <-stopProbe:
				return
			case <-time.After(10 * time.Millisecond):
			}
			resp, err := client.Get(ts.URL + "/metrics")
			if err != nil {
				continue
			}
			var snap struct {
				Server map[string]float64 `json:"server"`
			}
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err != nil {
				viol.addf("/metrics not decodable: %v", err)
				continue
			}
			for k, v := range snap.Server {
				if gauges[k] {
					continue
				}
				if v < prev[k] {
					viol.addf("counter %s went backwards: %v -> %v", k, prev[k], v)
				}
				prev[k] = v
			}
		}
	}()

	wg.Wait()

	// Drain while a straggler is still evaluating: park one expensive query,
	// then shut down and require completion within the grace period.
	var lateWG sync.WaitGroup
	lateWG.Add(1)
	go func() {
		defer lateWG.Done()
		post("/query", `{"query":"count(for $i in 1 to 400000 return ())"}`)
	}()
	time.Sleep(10 * time.Millisecond)

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(drainCtx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > cfg.DrainGrace+2*time.Second {
		t.Errorf("drain took %v, grace was %v", elapsed, cfg.DrainGrace)
	}
	lateWG.Wait()

	// Post-drain: new queries are refused with the draining code.
	resp, err := client.Post(ts.URL+"/query", "application/json",
		bytes.NewReader([]byte(`{"query":"1"}`)))
	if err == nil {
		func() {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable &&
				resp.Header.Get("X-Fault-Injected") == "" {
				viol.addf("post-drain query = %d, want 503", resp.StatusCode)
			}
		}()
	}

	close(stopProbe)
	probeWG.Wait()
	ts.Close()
	client.CloseIdleConnections()

	viol.report(t)

	// The storm did real work through real failures.
	m := s.Metrics().Snapshot()
	if m.Admitted == 0 || m.EvalOK == 0 {
		t.Errorf("chaos run did no work: %+v", m)
	}
	if m.EvalErrors == 0 {
		t.Error("chaos workload produced no evaluation errors; the mix is broken")
	}
	if m.InFlight != 0 || m.QueueDepth != 0 {
		t.Errorf("gauges nonzero after drain: in_flight=%d queue_depth=%d", m.InFlight, m.QueueDepth)
	}
	t.Logf("chaos: admitted=%d ok=%d errors=%d shed=%d drained=%d injected=%d",
		m.Admitted, m.EvalOK, m.EvalErrors, m.Shed(), m.Drained, httpInj.FailureCount())

	// No goroutine leaks: everything we started settles back to (about) the
	// baseline once connections close.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}
