package obs

import (
	"fmt"
	"strings"
	"time"
)

// EvalStats reports what one evaluation consumed, next to the budgets it
// ran under (zero budget = unlimited). The engine fills the struct passed
// via the public WithStats option after every evaluation, successful or
// not, overwriting the previous contents.
type EvalStats struct {
	// Steps is the number of evaluation steps charged (expression
	// evaluations, loop iterations, bulk charges from built-ins);
	// MaxSteps is the budget it ran under.
	Steps, MaxSteps int64
	// Nodes counts XML nodes constructed; MaxNodes is the budget.
	Nodes, MaxNodes int64
	// OutputBytes counts bytes of constructed text/atomized output;
	// MaxOutputBytes is the budget.
	OutputBytes, MaxOutputBytes int64
	// Timeout is the wall-clock budget the evaluation ran under.
	Timeout time.Duration
	// Wall is the measured wall-clock time of the evaluation. For
	// EvalReader it includes reading the document, on every tier.
	Wall time.Duration
	// TraceEvents counts fn:trace hits during the evaluation (live hits
	// only, not elided-site reports).
	TraceEvents int64
	// PlanCacheHit reports whether the query's compiled plan came out of
	// the process-wide plan cache (false for plain Compile).
	PlanCacheHit bool
	// CowClones and CowBreaks report the copy-on-write tree traffic during
	// the evaluation: lazy clones handed out, and one-level materializations
	// that broke sharing. Breaks well below Clones means the sharing held.
	// Measured as deltas of process-wide counters, so concurrent
	// evaluations bleed into each other's numbers; treat as indicative
	// under parallel load.
	CowClones, CowBreaks int64
	// IndexHits and IndexFallbacks report access-path traffic during the
	// evaluation: step probes served from a structural/value index, and
	// probes that fell back to a tree walk. IndexBuilds counts index
	// sections constructed (first probe of a freshly frozen tree pays the
	// build). Same process-wide-delta caveat as the COW counters.
	IndexHits, IndexFallbacks, IndexBuilds int64
	// UpdatesApplied and SpineNodes report what a Transform call did: the
	// length of the pending-update list applied, and the number of lazy
	// clone nodes materialized navigating to the targets (the copied spine).
	// Exact per-call values, not process-wide deltas. Zero for queries.
	UpdatesApplied, SpineNodes int64
	// ShapeChecksElided is always 0: the engine no longer skips a runtime
	// check on the strength of a static shape. The field stays because the
	// frozen benchmark (bench/docgen.go) reads it into
	// interp.shape_elided_per_doc; it goes at the next deliberate benchmark
	// revision (see ROADMAP).
	ShapeChecksElided int64
	// StreamMode records which streaming tier served the evaluation:
	// "full-stream" (SAX evaluator, no tree), "projected"
	// (projection-pruned parse), or "materialize". Empty for evaluations
	// that did not go through a streaming entry point.
	StreamMode string
	// BytesScanned counts input bytes consumed by the streaming parse or
	// SAX evaluation; NodesPruned counts elements the projection dropped.
	// Exact per-call values; zero outside streaming entry points.
	BytesScanned, NodesPruned int64
}

// String renders the stats as the one-line form the CLIs print:
// "steps=412/1000000 nodes=7 output-bytes=123 wall=1.2ms plan-cache=hit".
// A consumed counter with a nonzero budget prints as used/budget.
func (s EvalStats) String() string {
	var b strings.Builder
	quota := func(name string, used, max int64) {
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		if max > 0 {
			fmt.Fprintf(&b, "%s=%d/%d", name, used, max)
		} else {
			fmt.Fprintf(&b, "%s=%d", name, used)
		}
	}
	quota("steps", s.Steps, s.MaxSteps)
	quota("nodes", s.Nodes, s.MaxNodes)
	quota("output-bytes", s.OutputBytes, s.MaxOutputBytes)
	fmt.Fprintf(&b, " wall=%v", s.Wall.Round(time.Microsecond))
	if s.Timeout > 0 {
		fmt.Fprintf(&b, " timeout=%v", s.Timeout)
	}
	if s.TraceEvents > 0 {
		fmt.Fprintf(&b, " trace-events=%d", s.TraceEvents)
	}
	cache := "miss"
	if s.PlanCacheHit {
		cache = "hit"
	}
	fmt.Fprintf(&b, " plan-cache=%s", cache)
	if s.CowClones > 0 || s.CowBreaks > 0 {
		fmt.Fprintf(&b, " cow=%d/%d(clones/breaks)", s.CowClones, s.CowBreaks)
	}
	if s.IndexHits > 0 || s.IndexFallbacks > 0 {
		fmt.Fprintf(&b, " index=%d/%d(hits/fallbacks)", s.IndexHits, s.IndexFallbacks)
	}
	if s.UpdatesApplied > 0 || s.SpineNodes > 0 {
		fmt.Fprintf(&b, " upd=%d/%d(applied/spine-nodes)", s.UpdatesApplied, s.SpineNodes)
	}
	if s.StreamMode != "" {
		fmt.Fprintf(&b, " stream=%s scanned-bytes=%d", s.StreamMode, s.BytesScanned)
		if s.NodesPruned > 0 {
			fmt.Fprintf(&b, " pruned-nodes=%d", s.NodesPruned)
		}
	}
	return b.String()
}
