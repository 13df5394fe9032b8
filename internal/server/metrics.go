package server

// metrics.go is the daemon's own metric family, complementing the engine's
// process-wide obs registry: admission traffic (admitted/queued/shed),
// drain accounting, reload outcomes, and two gauges (queue depth,
// in-flight). Counters are monotonic — the chaos suite asserts that — and
// the whole family is exported three ways: the Snapshot type (JSON keys all
// prefixed server_), the /metrics endpoint, and expvar under
// "lopsided_server".

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// Metrics is the daemon's counter/gauge set. All fields are safe for
// concurrent update.
type Metrics struct {
	// Request accounting.
	Requests    atomic.Int64 // query requests received (before admission)
	Admitted    atomic.Int64 // admitted into evaluation
	Queued      atomic.Int64 // admitted only after waiting in the queue
	BadRequests atomic.Int64 // malformed requests rejected before admission

	// Load shedding, by reason (all are 503s with Retry-After).
	ShedQueueFull   atomic.Int64 // queue at capacity
	ShedDegraded    atomic.Int64 // degradation ladder shed (cheap-to-retry class)
	ShedDraining    atomic.Int64 // rejected because the daemon is draining
	ShedDeadline    atomic.Int64 // client deadline too tight to survive the queue
	ShedWaitTimeout atomic.Int64 // gave up waiting in the queue

	// Evaluation outcomes. Transform requests count in EvalOK/EvalErrors
	// too; the Transform* pair breaks out the update traffic.
	EvalOK          atomic.Int64
	EvalErrors      atomic.Int64 // failed evaluations, limit trips included
	LimitHits       atomic.Int64 // evaluations stopped by a LOPS budget
	TransformOK     atomic.Int64
	TransformErrors atomic.Int64

	// Drain accounting.
	Drained       atomic.Int64 // in-flight evaluations finished during drain
	DrainCanceled atomic.Int64 // in-flight evaluations cancelled at grace expiry

	// Store reloads.
	Reloads      atomic.Int64
	ReloadErrors atomic.Int64

	// Gauges.
	QueueDepth atomic.Int64 // requests waiting for admission right now
	InFlight   atomic.Int64 // evaluations running right now

	// Aggregate evaluation consumption (the /stats totals).
	TotalSteps          atomic.Int64
	TotalNodes          atomic.Int64
	TotalOutputBytes    atomic.Int64
	TotalWallNanos      atomic.Int64
	TotalUpdatesApplied atomic.Int64 // pending updates applied by /transform
	TotalSpineNodes     atomic.Int64 // COW spine nodes materialized by /transform
}

// MetricsSnapshot is a point-in-time copy of Metrics, shaped for JSON: one
// flat server_ family.
type MetricsSnapshot struct {
	Requests    int64 `json:"server_requests"`
	Admitted    int64 `json:"server_admitted"`
	Queued      int64 `json:"server_queued"`
	BadRequests int64 `json:"server_bad_requests"`

	ShedQueueFull   int64 `json:"server_shed_queue_full"`
	ShedDegraded    int64 `json:"server_shed_degraded"`
	ShedDraining    int64 `json:"server_shed_draining"`
	ShedDeadline    int64 `json:"server_shed_deadline"`
	ShedWaitTimeout int64 `json:"server_shed_wait_timeout"`

	EvalOK          int64 `json:"server_eval_ok"`
	EvalErrors      int64 `json:"server_eval_errors"`
	LimitHits       int64 `json:"server_limit_hits"`
	TransformOK     int64 `json:"server_transform_ok"`
	TransformErrors int64 `json:"server_transform_errors"`

	Drained       int64 `json:"server_drained"`
	DrainCanceled int64 `json:"server_drain_canceled"`

	Reloads      int64 `json:"server_reloads"`
	ReloadErrors int64 `json:"server_reload_errors"`

	QueueDepth int64 `json:"server_queue_depth"`
	InFlight   int64 `json:"server_in_flight"`

	TotalSteps          int64 `json:"server_total_steps"`
	TotalNodes          int64 `json:"server_total_nodes"`
	TotalOutputBytes    int64 `json:"server_total_output_bytes"`
	TotalWallNanos      int64 `json:"server_total_wall_ns"`
	TotalUpdatesApplied int64 `json:"server_total_updates_applied"`
	TotalSpineNodes     int64 `json:"server_total_spine_nodes"`
}

// Shed totals every load-shedding rejection across reasons.
func (s MetricsSnapshot) Shed() int64 {
	return s.ShedQueueFull + s.ShedDegraded + s.ShedDraining + s.ShedDeadline + s.ShedWaitTimeout
}

// Snapshot copies the current state.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Requests:            m.Requests.Load(),
		Admitted:            m.Admitted.Load(),
		Queued:              m.Queued.Load(),
		BadRequests:         m.BadRequests.Load(),
		ShedQueueFull:       m.ShedQueueFull.Load(),
		ShedDegraded:        m.ShedDegraded.Load(),
		ShedDraining:        m.ShedDraining.Load(),
		ShedDeadline:        m.ShedDeadline.Load(),
		ShedWaitTimeout:     m.ShedWaitTimeout.Load(),
		EvalOK:              m.EvalOK.Load(),
		EvalErrors:          m.EvalErrors.Load(),
		LimitHits:           m.LimitHits.Load(),
		TransformOK:         m.TransformOK.Load(),
		TransformErrors:     m.TransformErrors.Load(),
		Drained:             m.Drained.Load(),
		DrainCanceled:       m.DrainCanceled.Load(),
		Reloads:             m.Reloads.Load(),
		ReloadErrors:        m.ReloadErrors.Load(),
		QueueDepth:          m.QueueDepth.Load(),
		InFlight:            m.InFlight.Load(),
		TotalSteps:          m.TotalSteps.Load(),
		TotalNodes:          m.TotalNodes.Load(),
		TotalOutputBytes:    m.TotalOutputBytes.Load(),
		TotalWallNanos:      m.TotalWallNanos.Load(),
		TotalUpdatesApplied: m.TotalUpdatesApplied.Load(),
		TotalSpineNodes:     m.TotalSpineNodes.Load(),
	}
}

// expvar wiring: one process-wide slot; the latest-constructed server's
// metrics publish (expvar names cannot be unpublished, so the slot holds a
// swappable pointer).
var (
	expvarOnce   sync.Once
	expvarTarget atomic.Pointer[Metrics]
)

func publishExpvar(m *Metrics) {
	expvarTarget.Store(m)
	expvarOnce.Do(func() {
		expvar.Publish("lopsided_server", expvar.Func(func() any {
			if t := expvarTarget.Load(); t != nil {
				return t.Snapshot()
			}
			return MetricsSnapshot{}
		}))
	})
}
