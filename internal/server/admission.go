package server

// admission.go is the daemon's overload valve: a bounded-concurrency
// semaphore fronted by a bounded wait queue, with deadline-aware rejection
// and a two-level degradation ladder. The design bias is "reject early,
// reject cheap": a request that cannot plausibly be served inside its
// deadline is refused before it consumes a queue slot, and when the queue
// runs hot the work that is cheapest to retry (the batch class) sheds
// first so interactive traffic keeps flowing. Every rejection is a 503
// with Retry-After — the one failure mode a well-behaved client already
// knows how to handle.

import (
	"context"
	"sync/atomic"
	"time"
)

// RequestClass orders requests by how cheap they are to retry; cheaper
// classes shed first under load.
type RequestClass int

// Request classes. Batch work (bulk exports, rebuilds, anything a client
// retries from a loop) sheds before interactive traffic.
const (
	ClassInteractive RequestClass = iota
	ClassBatch
)

// ParseClass maps the wire form ("interactive", "batch", "") to a class;
// unknown strings conservatively count as interactive.
func ParseClass(s string) RequestClass {
	if s == "batch" {
		return ClassBatch
	}
	return ClassInteractive
}

// RejectReason says why admission refused a request.
type RejectReason int

// Rejection reasons, each with its own SRV code and metric.
const (
	RejectQueueFull RejectReason = iota
	RejectDegraded
	RejectDraining
	RejectDeadline
	RejectWaitTimeout
)

// Rejection is an admission refusal plus client-facing retry advice.
type Rejection struct {
	Reason     RejectReason
	Msg        string
	RetryAfter time.Duration
}

// minHeadroom is the extra deadline margin a request must have beyond the
// estimated queue wait to be queued at all.
const minHeadroom = 10 * time.Millisecond

// admission is the controller. Tokens is a semaphore channel of capacity
// MaxConcurrent; waiters count themselves in queued (bounded by MaxQueue)
// while blocked on a token.
type admission struct {
	tokens   chan struct{}
	maxQueue int64
	shedAt   int64 // queue depth at which the batch class sheds
	maxWait  time.Duration
	draining chan struct{} // closed when the daemon begins draining
	m        *Metrics

	// ewmaNanos tracks recent evaluation latency (atomically updated
	// int64 nanoseconds, EWMA α=1/8) to estimate queue wait for
	// deadline-aware rejection.
	ewmaNanos atomicDuration
}

func newAdmission(maxConcurrent, maxQueue int, maxWait time.Duration, m *Metrics) *admission {
	if maxConcurrent <= 0 {
		maxConcurrent = 4
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	a := &admission{
		tokens:   make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
		shedAt:   int64(maxQueue+1) / 2,
		maxWait:  maxWait,
		draining: make(chan struct{}),
		m:        m,
	}
	return a
}

// beginDrain flips the controller into reject-everything mode. Idempotent
// via the caller (the server closes it exactly once).
func (a *admission) beginDrain() { close(a.draining) }

func (a *admission) isDraining() bool {
	select {
	case <-a.draining:
		return true
	default:
		return false
	}
}

// estimatedWait guesses how long a newly queued request will wait: queue
// position ahead of it times recent per-slot service time, spread over the
// concurrency. Zero until the first evaluation completes.
func (a *admission) estimatedWait() time.Duration {
	per := a.ewmaNanos.load()
	if per == 0 {
		return 0
	}
	depth := a.m.QueueDepth.Load()
	return time.Duration(depth+1) * per / time.Duration(cap(a.tokens))
}

// observeLatency feeds one completed evaluation's wall time into the EWMA.
func (a *admission) observeLatency(d time.Duration) {
	a.ewmaNanos.observe(d)
}

// Acquire admits the request or rejects it. On admission the returned
// release function MUST be called exactly once when the evaluation
// finishes. ctx carries the request deadline; class picks the shed order.
func (a *admission) Acquire(ctx context.Context, class RequestClass) (release func(), rej *Rejection) {
	if a.isDraining() {
		a.m.ShedDraining.Add(1)
		return nil, &Rejection{Reason: RejectDraining,
			Msg:        "daemon is draining; retry against another replica",
			RetryAfter: a.retryAfter(2)}
	}

	// Fast path: a free slot, no queueing.
	select {
	case a.tokens <- struct{}{}:
		a.m.Admitted.Add(1)
		a.m.InFlight.Add(1)
		return a.release, nil
	default:
	}

	// Deadline-aware refusal: if the client's deadline cannot survive the
	// estimated queue wait (plus headroom), reject now — the cheapest
	// possible outcome for work that was going to time out anyway.
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if est := a.estimatedWait(); remaining < est+minHeadroom {
			a.m.ShedDeadline.Add(1)
			return nil, &Rejection{Reason: RejectDeadline,
				Msg:        "deadline too tight to survive the admission queue",
				RetryAfter: a.retryAfter(1)}
		}
	}

	// Queue admission: bounded depth, with the degradation ladder.
	depth := a.m.QueueDepth.Add(1)
	defer a.m.QueueDepth.Add(-1)
	if depth > a.maxQueue {
		a.m.ShedQueueFull.Add(1)
		return nil, &Rejection{Reason: RejectQueueFull,
			Msg:        "admission queue full",
			RetryAfter: a.retryAfter(2)}
	}
	if class == ClassBatch && depth > a.shedAt {
		a.m.ShedDegraded.Add(1)
		return nil, &Rejection{Reason: RejectDegraded,
			Msg:        "degraded mode: batch-class work is shedding first",
			RetryAfter: a.retryAfter(2)}
	}

	wait := time.NewTimer(a.maxWait)
	defer wait.Stop()
	select {
	case a.tokens <- struct{}{}:
		a.m.Admitted.Add(1)
		a.m.Queued.Add(1)
		a.m.InFlight.Add(1)
		return a.release, nil
	case <-a.draining:
		a.m.ShedDraining.Add(1)
		return nil, &Rejection{Reason: RejectDraining,
			Msg:        "daemon began draining while the request was queued",
			RetryAfter: a.retryAfter(2)}
	case <-ctx.Done():
		a.m.ShedDeadline.Add(1)
		return nil, &Rejection{Reason: RejectDeadline,
			Msg:        "request deadline expired in the admission queue",
			RetryAfter: a.retryAfter(1)}
	case <-wait.C:
		a.m.ShedWaitTimeout.Add(1)
		return nil, &Rejection{Reason: RejectWaitTimeout,
			Msg:        "gave up waiting for an evaluation slot",
			RetryAfter: a.retryAfter(2)}
	}
}

func (a *admission) release() {
	<-a.tokens
	a.m.InFlight.Add(-1)
}

// retryAfter derives retry advice from observed latency and queue depth:
// roughly "when the current queue should have cleared", scaled by how hard
// the rejection was, clamped to [1s, 30s].
func (a *admission) retryAfter(severity int64) time.Duration {
	est := a.estimatedWait()
	d := time.Duration(severity) * est
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// atomicDuration is an EWMA (α = 1/8) over durations with atomic updates.
type atomicDuration struct {
	nanos atomic.Int64
}

func (a *atomicDuration) load() time.Duration {
	return time.Duration(a.nanos.Load())
}

func (a *atomicDuration) observe(d time.Duration) {
	for {
		old := a.nanos.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if a.nanos.CompareAndSwap(old, next) {
			return
		}
	}
}
