package interp

// This file is the evaluation sandbox: per-evaluation resource budgets
// (wall clock, steps, constructed nodes, output bytes) plus cooperative
// cancellation via context.Context. The paper's C1 lesson is that an engine
// embedded in a larger system must fail in bounded, recoverable ways; the
// budget set here is what lets the public xq API promise that no query —
// however adversarial — can hang or crash the host.
//
// The LOPS* codes are this engine's own error namespace, alongside the
// spec's XP*/XQ*/FO* codes: they mark errors raised by the sandbox rather
// than by XQuery semantics.

import (
	"context"
	"fmt"
	"time"

	"lopsided/internal/xdm"
)

// Sandbox error codes. These live beside the spec codes (XPST*, XPDY*,
// FO*, XQDY*) but are raised by the resource sandbox, not by the language.
const (
	// CodeTimeout is raised when the wall-clock deadline passes or the
	// evaluation context is cancelled.
	CodeTimeout = "LOPS0001"
	// CodeSteps is raised when the evaluation-step budget is exhausted.
	CodeSteps = "LOPS0002"
	// CodeDepth is raised when user-function recursion exceeds MaxDepth.
	CodeDepth = "LOPS0003"
	// CodeNodes is raised when constructed nodes exceed MaxNodes.
	CodeNodes = "LOPS0004"
	// CodeOutput is raised when constructed text/output exceeds
	// MaxOutputBytes.
	CodeOutput = "LOPS0005"
	// CodePanic marks an internal panic contained at the Eval boundary.
	CodePanic = "LOPS0009"
)

// IsLimitCode reports whether code names a sandbox resource-limit error
// (timeout, steps, depth, nodes, output) rather than a language error.
func IsLimitCode(code string) bool {
	switch code {
	case CodeTimeout, CodeSteps, CodeDepth, CodeNodes, CodeOutput:
		return true
	}
	return false
}

// Limits bounds a single evaluation. The zero value means "no limits",
// preserving the engine's historical behavior. Limits are safe to share
// between evaluations: each Eval gets its own counters.
type Limits struct {
	// Timeout is the wall-clock budget per evaluation; 0 means none.
	Timeout time.Duration
	// MaxSteps bounds evaluation steps (roughly, expression evaluations —
	// loop iterations, function calls and constructors all charge steps);
	// 0 means unlimited.
	MaxSteps int64
	// MaxNodes bounds the number of XML nodes constructed during the
	// evaluation; 0 means unlimited.
	MaxNodes int64
	// MaxOutputBytes bounds the bytes of text and atomized output
	// constructed during the evaluation; 0 means unlimited.
	MaxOutputBytes int64
	// MaxDepth bounds user-function recursion; 0 keeps the interpreter's
	// default (8192), which each evaluation applies.
	MaxDepth int
}

// pollEvery is how many budget charges pass between wall-clock/context
// polls. Budget charges are a few ns; polling time.Now each step would
// dominate evaluation.
const pollEvery = 1024

// budget is the per-evaluation mutable counter set. A nil *budget means the
// evaluation is unlimited and uncancellable (the historical fast path).
//
// Once any budget check fails the budget is tripped: every later charge
// returns the same error. That makes limit errors effectively uncatchable
// by try/catch — the catch branch's own evaluation re-trips immediately —
// which is what guarantees termination.
type budget struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool

	steps, maxSteps int64
	nodes, maxNodes int64
	bytes, maxBytes int64

	// traceHits counts live fn:trace calls, for EvalStats.
	traceHits int64

	untilPoll int
	tripped   error
}

// newBudget builds a budget for one evaluation, or nil if nothing is
// limited and ctx can never be cancelled. forceCount builds one anyway —
// with zero limits it never trips, but its counters feed EvalStats.
func newBudget(ctx context.Context, l Limits, forceCount bool) *budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &budget{
		ctx:       ctx,
		maxSteps:  l.MaxSteps,
		maxNodes:  l.MaxNodes,
		maxBytes:  l.MaxOutputBytes,
		untilPoll: pollEvery,
	}
	if l.Timeout > 0 {
		b.deadline = time.Now().Add(l.Timeout)
		b.hasDeadline = true
	}
	if d, ok := ctx.Deadline(); ok && (!b.hasDeadline || d.Before(b.deadline)) {
		b.deadline = d
		b.hasDeadline = true
	}
	if !forceCount && !b.hasDeadline && b.maxSteps == 0 && b.maxNodes == 0 && b.maxBytes == 0 && ctx.Done() == nil {
		return nil
	}
	return b
}

// trip records and returns a sandbox error; every subsequent charge
// returns it again.
func (b *budget) trip(code, format string, args ...interface{}) error {
	if b.tripped == nil {
		b.tripped = &xdm.Error{Code: code, Msg: fmt.Sprintf(format, args...)}
	}
	return b.tripped
}

// poll checks wall clock and context cancellation.
func (b *budget) poll() error {
	if b.tripped != nil {
		return b.tripped
	}
	if err := b.ctx.Err(); err != nil {
		return b.trip(CodeTimeout, "evaluation cancelled: %v", err)
	}
	if b.hasDeadline && time.Now().After(b.deadline) {
		return b.trip(CodeTimeout, "evaluation wall-clock budget exhausted after %d steps", b.steps)
	}
	return nil
}

// step charges one evaluation step; the eval loop calls it for every
// expression, so loop iterations, function calls and constructors are all
// covered.
func (b *budget) step() error {
	return b.addSteps(1)
}

// addSteps charges n evaluation steps (bulk operations like range
// materialization charge their full size up front).
func (b *budget) addSteps(n int64) error {
	if b.tripped != nil {
		return b.tripped
	}
	b.steps += n
	if b.maxSteps > 0 && b.steps > b.maxSteps {
		return b.trip(CodeSteps, "evaluation step budget (%d) exhausted", b.maxSteps)
	}
	b.untilPoll -= int(n)
	if b.untilPoll <= 0 {
		b.untilPoll = pollEvery
		return b.poll()
	}
	return nil
}

// addNodes charges n constructed XML nodes.
func (b *budget) addNodes(n int64) error {
	if b.tripped != nil {
		return b.tripped
	}
	b.nodes += n
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		return b.trip(CodeNodes, "constructed-node budget (%d) exhausted", b.maxNodes)
	}
	return nil
}

// addBytes charges n bytes of constructed text/output.
func (b *budget) addBytes(n int64) error {
	if b.tripped != nil {
		return b.tripped
	}
	b.bytes += n
	if b.maxBytes > 0 && b.bytes > b.maxBytes {
		return b.trip(CodeOutput, "output-byte budget (%d) exhausted", b.maxBytes)
	}
	return nil
}

// chargeNodes charges constructed XML nodes against the budget (no-op
// when unlimited); construct.go calls it at every constructor site.
func (c *evalCtx) chargeNodes(n int) error {
	if c.bud == nil {
		return nil
	}
	return c.bud.addNodes(int64(n))
}

// ChargeSteps implements funclib.Context: built-ins with data-dependent
// loops (distinct-values, string-join, concat…) charge the same budget as
// the eval loop.
func (c *evalCtx) ChargeSteps(n int) error {
	if c.bud == nil {
		return nil
	}
	return c.bud.addSteps(int64(n))
}

// ChargeBytes implements funclib.Context: constructors and built-ins charge
// constructed text bytes against the budget.
func (c *evalCtx) ChargeBytes(n int) error {
	if c.bud == nil {
		return nil
	}
	return c.bud.addBytes(int64(n))
}
