// Package obs is the engine-wide observability layer: structured
// evaluation tracing, per-evaluation statistics, and a process-wide
// metrics registry.
//
// The paper's sharpest debugging complaint is that fn:trace was useless in
// practice — Galax's dead-code pass deleted the trace calls, so the team
// "could not watch the program run". This package is the answer the paper's
// engine never had: a structured Tracer that the runtime reports to
// directly, so a host can watch compile → optimize → eval phases, FLWOR
// clause iterations, user-function calls, and every fn:trace hit — even the
// ones the optimizer eliminated, which are still reported (flagged Elided)
// instead of silently vanishing.
//
// Everything here is designed to cost nothing when unused: the no-op
// Tracer allocates nothing per event, and an engine with no tracer
// installed pays only a nil check at each emission point.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// EventKind classifies a trace event.
type EventKind uint8

// Event kinds.
const (
	// PhaseBegin marks the start of an engine phase ("parse", "optimize",
	// "compile", "eval").
	PhaseBegin EventKind = iota + 1
	// PhaseEnd marks the end of a phase; Elapsed carries its duration.
	PhaseEnd
	// ClauseIter marks one binding produced by a FLWOR for/let clause:
	// Name is the clause label ("for $x at $i", "let $y"), Iter the 1-based
	// iteration ordinal (0 for let clauses, which bind once).
	ClauseIter
	// FuncCall marks a user-declared function invocation; Name is the
	// function name.
	FuncCall
	// TraceHit marks one fn:trace call reaching the host; Values carries
	// the serialized arguments. When Elided is set the call site was
	// removed by dead-code elimination (the Galax quirk) and the event is
	// the compile-time record of it: Values holds the statically-known
	// arguments and the event fires once per evaluation, not per hit.
	TraceHit
)

// String names the kind for diagnostics.
func (k EventKind) String() string {
	switch k {
	case PhaseBegin:
		return "phase-begin"
	case PhaseEnd:
		return "phase-end"
	case ClauseIter:
		return "clause"
	case FuncCall:
		return "call"
	case TraceHit:
		return "trace"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one structured observation from the engine. Events are passed
// by value and reference only memory that already exists (names interned at
// compile time, fn:trace values the call produced anyway), so emitting one
// allocates nothing.
type Event struct {
	Kind EventKind
	// Name is the phase name, clause label, function name, or trace label.
	Name string
	// Line and Col locate the originating expression (0 when unknown).
	Line, Col int
	// Iter is the 1-based iteration ordinal for ClauseIter events.
	Iter int64
	// Elapsed is the phase duration for PhaseEnd events.
	Elapsed time.Duration
	// Values carries the serialized fn:trace arguments for TraceHit events.
	Values []string
	// Elided marks a TraceHit whose call site was eliminated by dead-code
	// analysis: the engine still reports it, unlike the Galax of the paper.
	Elided bool
}

// String renders the event as one diagnostic line.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	if e.Name != "" {
		b.WriteString(" ")
		b.WriteString(e.Name)
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, " @%d:%d", e.Line, e.Col)
	}
	if e.Kind == ClauseIter && e.Iter > 0 {
		fmt.Fprintf(&b, " #%d", e.Iter)
	}
	if e.Kind == PhaseEnd {
		fmt.Fprintf(&b, " (%v)", e.Elapsed)
	}
	if len(e.Values) > 0 {
		b.WriteString(": ")
		b.WriteString(strings.Join(e.Values, " "))
	}
	if e.Elided {
		b.WriteString(" [elided by dead-code elimination]")
	}
	return b.String()
}

// Tracer receives structured engine events. Implementations must be safe
// for concurrent use when the host evaluates concurrently; the engine may
// call Emit from any evaluating goroutine.
type Tracer interface {
	Emit(ev Event)
}

// nopTracer is the zero-allocation default: Emit discards the event. The
// event is passed by value, so installing Nop costs one interface call per
// event and zero heap.
type nopTracer struct{}

func (nopTracer) Emit(Event) {}

// Nop is the no-op Tracer. Installing it is equivalent to observability
// being off, minus one predictable interface call per event.
var Nop Tracer = nopTracer{}

// TraceFunc adapts a plain fn:trace consumer — the shape of the engine's
// historical tracer callback — to the Tracer interface. Only live TraceHit
// events are forwarded: elided hits are suppressed, preserving the
// paper-era observable behavior (the Galax quirk swallows the trace) for
// hosts that opted into it.
type TraceFunc func(values []string)

// Emit implements Tracer.
func (f TraceFunc) Emit(ev Event) {
	if ev.Kind == TraceHit && !ev.Elided {
		f(ev.Values)
	}
}

// Collector is a Tracer that records every event, for tests and
// post-mortem inspection. Safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a snapshot of everything recorded so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// OfKind returns the recorded events of one kind, in order.
func (c *Collector) OfKind(k EventKind) []Event {
	var out []Event
	for _, ev := range c.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// Reset discards everything recorded so far.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}

// logTracer writes one line per event; see NewLogTracer.
type logTracer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLogTracer returns a Tracer that writes each event as one line to w
// ("trace x= @1:5: x= 5"). Writes are serialized with a mutex so
// concurrent evaluations interleave at line granularity.
func NewLogTracer(w io.Writer) Tracer { return &logTracer{w: w} }

// Emit implements Tracer.
func (t *logTracer) Emit(ev Event) {
	t.mu.Lock()
	fmt.Fprintln(t.w, ev.String())
	t.mu.Unlock()
}
