// Package faultinject is a deterministic fault-injection harness for
// exercising the engine's degraded paths: a seeded injector for model
// property access, store loads and HTTP handling, plus retry-with-backoff
// for the transient class. The paper's C1 lesson is that a little language
// embedded in a real system spends much of its life on the failure path;
// this package makes that path testable on demand instead of waiting for
// production to supply the faults.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultError is an injected failure. Transient faults model conditions a
// retry could clear (slow storage, a lock); permanent ones model missing or
// corrupt data.
type FaultError struct {
	Op        string // operation that failed, e.g. `doc("file.xml")`
	Transient bool
}

// Error implements the error interface.
func (e *FaultError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("injected %s fault: %s", kind, e.Op)
}

// IsTransient reports whether err is a retryable injected fault.
func IsTransient(err error) bool {
	fe, ok := err.(*FaultError)
	return ok && fe.Transient
}

// Fault records one injected event, in injection order.
type Fault struct {
	Op   string
	Kind string // "failure", "transient-failure" or "latency"
}

// Injector decides, deterministically from its seed, which operations fail.
// It is safe for concurrent use.
type Injector struct {
	mu            sync.Mutex
	rng           *rand.Rand
	failureRate   float64
	transientRate float64 // fraction of failures that are transient
	latencyRate   float64
	latency       time.Duration
	partialRate   float64 // fraction of operations with truncated responses
	sleep         func(time.Duration)
	log           []Fault
}

// New builds an injector failing roughly failureRate of operations
// (0 ≤ rate ≤ 1), deterministically per seed. All failures are permanent
// until Transient or Latency configure otherwise.
func New(seed int64, failureRate float64) *Injector {
	return &Injector{
		rng:         rand.New(rand.NewSource(seed)),
		failureRate: failureRate,
		sleep:       time.Sleep,
	}
}

// Transient marks the given fraction of injected failures (0..1) as
// transient, i.e. clearable by retry. Returns the injector for chaining.
func (i *Injector) Transient(fraction float64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.transientRate = fraction
	return i
}

// Latency makes the given fraction of operations stall for d before
// succeeding. Returns the injector for chaining.
func (i *Injector) Latency(fraction float64, d time.Duration) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.latencyRate = fraction
	i.latency = d
	return i
}

// Partial makes the given fraction of operations (0..1) deliver truncated
// responses. Only the HTTP middleware, Handler, acts on the partial
// verdict; plain Hit callers never see it. Returns the injector for
// chaining.
func (i *Injector) Partial(fraction float64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.partialRate = fraction
	return i
}

// SetSleep replaces the latency clock, letting tests observe stalls without
// real wall-time. Returns the injector for chaining.
func (i *Injector) SetSleep(f func(time.Duration)) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.sleep = f
	return i
}

// Decision is the injector's full verdict for one operation: how long to
// stall, whether to fail, and whether to truncate the response mid-body.
type Decision struct {
	// Stall is how long the operation should pause before proceeding
	// (already slept by Decide itself via the configured sleep function).
	Stall time.Duration
	// Err is the injected failure, nil when the operation should succeed.
	Err error
	// Partial asks the caller to deliver only part of its response. It is
	// only set on otherwise-successful operations.
	Partial bool
}

// Decide gives the injector a chance to fault the named operation. It
// sleeps any injected latency before returning, and reports the verdict for
// the caller to act on. Safe for concurrent use; the fault sequence is
// deterministic per seed for a fixed sequence of calls.
func (i *Injector) Decide(op string) Decision {
	i.mu.Lock()
	stall := i.latencyRate > 0 && i.rng.Float64() < i.latencyRate
	fail := i.failureRate > 0 && i.rng.Float64() < i.failureRate
	transient := fail && i.transientRate > 0 && i.rng.Float64() < i.transientRate
	partial := !fail && i.partialRate > 0 && i.rng.Float64() < i.partialRate
	var d Decision
	var sleep func(time.Duration)
	if stall {
		d.Stall, sleep = i.latency, i.sleep
		i.log = append(i.log, Fault{Op: op, Kind: "latency"})
	}
	if fail {
		kind := "failure"
		if transient {
			kind = "transient-failure"
		}
		i.log = append(i.log, Fault{Op: op, Kind: kind})
		d.Err = &FaultError{Op: op, Transient: transient}
	}
	if partial {
		d.Partial = true
		i.log = append(i.log, Fault{Op: op, Kind: "partial"})
	}
	i.mu.Unlock()
	if stall {
		sleep(d.Stall)
	}
	return d
}

// Hit gives the injector a chance to fault the named operation: it may
// stall, and it may return a *FaultError. A nil return means the operation
// should proceed normally. Partial-response verdicts are not surfaced here;
// use Decide (or the HTTP middleware) for those.
func (i *Injector) Hit(op string) error {
	return i.Decide(op).Err
}

// Faults returns a copy of every fault injected so far, in order.
func (i *Injector) Faults() []Fault {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]Fault, len(i.log))
	copy(out, i.log)
	return out
}

// FailureCount reports how many injected faults were failures (either
// kind), excluding pure latency events.
func (i *Injector) FailureCount() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := 0
	for _, f := range i.log {
		if f.Kind != "latency" {
			n++
		}
	}
	return n
}

// Backoff is a bounded exponential-backoff retry policy with optional
// deterministic jitter.
type Backoff struct {
	// Attempts is the maximum number of tries (≥1); 0 means 3.
	Attempts int
	// Base is the delay before the second try; it doubles per retry. 0
	// means 1ms.
	Base time.Duration
	// Max caps each (pre-jitter) delay, bounding the exponential growth so
	// a long retry chain cannot back off into minutes. 0 means no cap.
	Max time.Duration
	// Jitter is the fraction (0..1) of each delay that is randomized:
	// the slept delay is uniform in [delay·(1−Jitter), delay]. Subtractive
	// jitter keeps the bound hard — a jittered delay never exceeds the
	// unjittered one. 0 means no jitter.
	Jitter float64
	// Seed makes the jitter sequence deterministic: two Retry runs with
	// the same Seed (and policy) sleep identical durations. Used whenever
	// Jitter > 0, so a zero Seed is itself a fixed, reproducible choice.
	Seed int64
	// Sleep replaces time.Sleep in tests; nil uses the real clock.
	Sleep func(time.Duration)
}

// delays returns the exact sleep schedule the policy would use before tries
// 2..Attempts: exponential from Base, capped at Max, jittered
// deterministically from Seed. Tests read it to assert the schedule without
// running ops.
func (b Backoff) delays() []time.Duration {
	attempts := b.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	base := b.Base
	if base <= 0 {
		base = time.Millisecond
	}
	var rng *rand.Rand
	if b.Jitter > 0 {
		rng = rand.New(rand.NewSource(b.Seed))
	}
	jitter := b.Jitter
	if jitter > 1 {
		jitter = 1
	}
	out := make([]time.Duration, 0, attempts-1)
	delay := base
	for try := 1; try < attempts; try++ {
		if b.Max > 0 && delay > b.Max {
			delay = b.Max
		}
		d := delay
		if rng != nil {
			d = delay - time.Duration(jitter*rng.Float64()*float64(delay))
		}
		out = append(out, d)
		delay *= 2
	}
	return out
}

// Retry runs op under the policy, retrying only transient faults: a
// permanent fault or success returns immediately. The last error is
// returned when attempts are exhausted.
func Retry(b Backoff, op func() error) error {
	attempts := b.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	sleep := b.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	schedule := b.delays()
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			sleep(schedule[try-1])
		}
		err = op()
		if err == nil || !IsTransient(err) {
			return err
		}
	}
	return err
}
