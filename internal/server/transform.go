package server

// transform.go is /transform: the update sublanguage over the wire. The
// endpoint is functional, like everything else in the daemon — the update
// program is applied against the collection's current snapshot and the
// transformed document comes back in the response; the store itself is
// never mutated (a reload is the only way collection contents change).
// The request pipeline is /query's (see endpoint.ServeHTTP); this file holds
// only what differs: the wire types, the missing-collection rule, and the
// endpoint value that selects CompileUpdate (and with it Transform), the
// transform counters, the XUDY0027 → SRV0010 remap and the two extra
// response stats.

import (
	"sync/atomic"

	"lopsided/xq"
)

// TransformRequest is the /transform wire format.
type TransformRequest struct {
	// Update is the update-program source (required).
	Update string `json:"update"`
	// Collection names the collection whose synthetic root is transformed
	// (required — an update program needs a tree to update).
	Collection string `json:"collection"`
	// Tenant selects the plan cache; "" means "default".
	Tenant string `json:"tenant,omitempty"`
	// Class is "interactive" (default) or "batch"; batch sheds first.
	Class string `json:"class,omitempty"`
	// Limit hints, clamped by server policy.
	TimeoutMs      int64 `json:"timeout_ms,omitempty"`
	MaxSteps       int64 `json:"max_steps,omitempty"`
	MaxNodes       int64 `json:"max_nodes,omitempty"`
	MaxOutputBytes int64 `json:"max_output_bytes,omitempty"`
}

func (r *TransformRequest) call() (call, string) {
	switch {
	case r.Update == "":
		return call{}, `missing "update"`
	case r.Collection == "":
		return call{}, `missing "collection": an update program needs a tree to transform`
	}
	return call{src: r.Update, collection: r.Collection, tenant: r.Tenant, class: r.Class,
		timeoutMs: r.TimeoutMs, maxSteps: r.MaxSteps, maxNodes: r.MaxNodes, maxOutputBytes: r.MaxOutputBytes}, ""
}

// TransformResponse is the /transform success body. Result is the
// serialized transformed document; the stored collection is unchanged.
type TransformResponse struct {
	responseHead
	Stats transformStats `json:"stats"`
}

type transformStats struct {
	Steps          int64   `json:"steps"`
	Nodes          int64   `json:"nodes"`
	OutputBytes    int64   `json:"output_bytes"`
	UpdatesApplied int64   `json:"updates_applied"`
	SpineNodes     int64   `json:"spine_nodes"`
	WallMs         float64 `json:"wall_ms"`
}

func (s *Server) transformEndpoint() *endpoint {
	return &endpoint{
		s:          s,
		newRequest: func() wireRequest { return new(TransformRequest) },
		compile:    (*xq.Cache).CompileUpdate,
		ok:         []*atomic.Int64{&s.metrics.EvalOK, &s.metrics.TransformOK},
		failed:     []*atomic.Int64{&s.metrics.EvalErrors, &s.metrics.TransformErrors},
		// The update's target does not exist in the collection tree — the
		// request is well-formed but names nothing to update. The daemon
		// gives this its own code so clients can distinguish "fix your
		// path" from other dynamic failures.
		recode: map[string]string{"XUDY0027": CodeNoTarget},
		respond: func(head responseHead, st xq.EvalStats, wallMs float64) any {
			return TransformResponse{head, transformStats{
				st.Steps, st.Nodes, st.OutputBytes, st.UpdatesApplied, st.SpineNodes, wallMs}}
		},
	}
}
