// Package interp evaluates parsed XQuery modules through a two-stage
// engine: a compile layer that lowers the (optimizer-processed) AST into
// closure-compiled expressions with slot-resolved variables and pre-bound
// function dispatch (see compile.go), and a runtime layer that executes
// the compiled program against per-evaluation frames.
//
// The evaluator runs in untyped mode — node atomization yields
// xs:untypedAtomic, as in the paper's schema-less AWB pipeline — and
// reproduces the draft-2004 construction semantics the paper documents:
// sequence flattening, leading-attribute folding (with an error for
// attributes after content), duplicate computed-attribute resolution
// (configurable to mimic the Galax bug), and boundary-whitespace stripping.
package interp

import (
	"context"
	"fmt"
	"strings"

	"lopsided/internal/obs"
	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/funclib"
)

// DupAttrPolicy selects what happens when element construction produces two
// attribute nodes with the same name.
type DupAttrPolicy int

// Duplicate-attribute policies. The paper (T3b): "If two attribute nodes
// have the same name, only one should make it into the final element
// (though Galax did not honor this as of the time of writing)".
const (
	// DupAttrLastWins keeps the last duplicate (draft semantics; default).
	DupAttrLastWins DupAttrPolicy = iota
	// DupAttrFirstWins keeps the first duplicate (the other legal outcome
	// the paper shows: <el b="3" a="1"/> vs <el b="3" a="2"/>).
	DupAttrFirstWins
	// DupAttrGalaxBug keeps both, mimicking the Galax bug of the era.
	DupAttrGalaxBug
	// DupAttrError raises XQDY0025, the behavior the final 1.0 spec chose.
	DupAttrError
)

// Options configures one evaluation of a Program. Options are runtime
// configuration only: they never influence what the compile layer produces,
// which is what lets one compiled Program serve differently-configured
// evaluations (the basis of the xq plan cache).
type Options struct {
	// Tracer receives structured engine events: fn:trace hits (live and
	// DCE-elided), FLWOR clause iterations, and user-function calls. Nil
	// disables tracing; hosts that only want the classic fn:trace output
	// can install obs.TraceFunc. The tracer may be called from any
	// evaluating goroutine and must be safe for concurrent use if the
	// Program is evaluated concurrently.
	Tracer obs.Tracer
	// DocResolver resolves fn:doc URIs; nil makes fn:doc fail.
	DocResolver func(uri string) (*xmltree.Node, error)
	// DupAttr selects duplicate computed-attribute behavior.
	DupAttr DupAttrPolicy
	// Limits is the per-evaluation resource sandbox (see limits.go). The
	// zero value imposes no limits.
	Limits Limits
	// Stats, when non-nil, receives what the evaluation counted: Steps,
	// Nodes, OutputBytes and TraceEvents (Transform adds UpdatesApplied and
	// SpineNodes). No other field is written; the budgets, the wall time
	// and the rest are the host's to report. Requesting stats forces
	// resource counting even when no Limits are set; the counters then never
	// trip.
	Stats *obs.EvalStats
}

// Error is a positioned evaluation error carrying an XQuery error code.
type Error struct {
	Code string
	Msg  string
	Pos  ast.Pos
	// Static marks an error reported at compile time by static analysis
	// (the shapes pass proving an XPTY/XPST error inevitable) rather than
	// raised during evaluation. Hosts map the distinction onto their error
	// taxonomies: the CLI exits with the static-error status, the server
	// answers 400 instead of 422.
	Static bool
}

// Error implements the error interface; unlike the Galax of the paper's
// era, every dynamic error carries its source position.
func (e *Error) Error() string {
	return fmt.Sprintf("xquery: %d:%d: %s: %s", e.Pos.Line, e.Pos.Col, e.Code, e.Msg)
}

// focus is the dynamic focus: context item, position, size.
type focus struct {
	item xdm.Item
	pos  int
	size int
	set  bool
}

// evalCtx carries the runtime state of one evaluation; it implements
// funclib.Context. Variables live in flat slot-indexed frames resolved at
// compile time — frame for the current scope's locals, globals for prolog
// and external variables — so the runtime never looks a variable up by
// name. An evaluation builds exactly one evalCtx: a user-function call swaps
// the callee's frame, focus and depth into it and restores them on return,
// and every frame and argument vector is a window on its value stack.
type evalCtx struct {
	// opts is the evaluation's configuration, MaxDepth defaulted.
	opts Options
	// frame holds the current scope's local bindings (FLWOR/quantified/
	// typeswitch/try-catch variables and function parameters), indexed by
	// the slots the compiler assigned; it is a window on stack.
	frame []xdm.Sequence
	// stack is the value stack frames and argument vectors are pushed on
	// (see push); until it outgrows them, it is backed by slots.
	stack []xdm.Sequence
	// globals holds prolog and externally-supplied variables, shared by
	// every scope of the evaluation, then the invariant functions' memo
	// slots (compiledFunc.memo); gset marks which slots are bound.
	globals []xdm.Sequence
	gset    []bool
	focus   focus
	depth   int
	// bud is the shared per-evaluation resource budget; nil = unlimited.
	bud *budget
	// tr is opts.Tracer, cached so the hot path pays one nil check and no
	// pointer chase; nil disables event emission.
	tr obs.Tracer
	// slots are the stack's first slots, in the context's own allocation.
	slots [16]xdm.Sequence
}

// push reserves n cleared slots on the value stack and returns them as a
// window, with the base pop needs. The window's capacity ends at its length,
// so an append to it copies rather than writing into the next window. A
// stack too short for n moves to a new, larger array; the windows already
// handed out keep the old one, which nothing but they use any more, so a
// window stays valid however deep the calls nested inside its caller go.
// The new array's first base slots are left empty: they would be stale
// copies, read by no one and holding their values alive.
func (c *evalCtx) push(n int) (w []xdm.Sequence, base int) {
	base = len(c.stack)
	if base+n > cap(c.stack) {
		c.stack = make([]xdm.Sequence, base, max(2*cap(c.stack), base+n))
	}
	c.stack = c.stack[:base+n]
	return c.stack[base : base+n : base+n], base
}

// pop releases the window w that push returned at base, and everything
// pushed above it: the slots are cleared, so a returned frame keeps no
// value reachable. w is cleared on its own because the stack may have moved
// to a new array while w was live.
func (c *evalCtx) pop(w []xdm.Sequence, base int) {
	clear(w)
	clear(c.stack[base:])
	c.stack = c.stack[:base]
}

// FocusItem implements funclib.Context.
func (c *evalCtx) FocusItem() (xdm.Item, error) {
	if !c.focus.set {
		return nil, &xdm.Error{Code: "XPDY0002", Msg: "no context item (the '.' Galax calls $glx:dot is undefined here)"}
	}
	return c.focus.item, nil
}

// FocusPos implements funclib.Context.
func (c *evalCtx) FocusPos() (int, error) {
	if !c.focus.set {
		return 0, &xdm.Error{Code: "XPDY0002", Msg: "position() with no context item"}
	}
	return c.focus.pos, nil
}

// FocusSize implements funclib.Context.
func (c *evalCtx) FocusSize() (int, error) {
	if !c.focus.set {
		return 0, &xdm.Error{Code: "XPDY0002", Msg: "last() with no context item"}
	}
	return c.focus.size, nil
}

// Trace implements funclib.Context: one live fn:trace hit.
func (c *evalCtx) Trace(values []string) {
	if c.bud != nil {
		c.bud.traceHits++
	}
	if c.tr != nil {
		obs.Default().TraceEvents.Add(1)
		c.tr.Emit(obs.Event{Kind: obs.TraceHit, Values: values})
	}
}

// Doc implements funclib.Context.
func (c *evalCtx) Doc(uri string) (xdm.Sequence, error) {
	if c.opts.DocResolver == nil {
		return nil, &xdm.Error{Code: "FODC0002", Msg: fmt.Sprintf("no document resolver configured for %q", uri)}
	}
	doc, err := c.opts.DocResolver(uri)
	if err != nil {
		return nil, &xdm.Error{Code: "FODC0002", Msg: fmt.Sprintf("cannot retrieve %q: %v", uri, err)}
	}
	return xdm.Singleton(xdm.NewNode(doc)), nil
}

// defaultMaxDepth is the user-function recursion bound an evaluation runs
// under when its Limits leave MaxDepth zero.
const defaultMaxDepth = 8192

// Eval evaluates the module body. ctxItem may be nil (no context item);
// vars pre-binds external variables by name (without '$'). Cancelling ctx
// (or passing one with a deadline) terminates the evaluation with a
// LOPS0001 error; opts.Limits apply on top of ctx. opts.Stats, when
// non-nil, receives the evaluation's counts, and the Tracer the structured
// events — including fn:trace sites the optimizer eliminated.
//
// Eval is the panic-containment boundary required by the public xq API:
// any panic escaping the evaluator (including xmltree assertion panics) is
// converted into a coded LOPS0009 error instead of crashing the embedding
// process. Goroutine-stack overflow is the one failure Go does not let us
// recover; the parser's nesting limits and the recursion depth limit exist
// to keep evaluation away from it.
//
// Eval is safe to call concurrently on one Program: each call builds its
// own context, value stack and budget over the shared read-only plan.
func (p *Program) Eval(ctx context.Context, ctxItem xdm.Item, vars map[string]xdm.Sequence, opts Options) (xdm.Sequence, error) {
	return p.evaluate(ctx, ctxItem, vars, opts, p.body)
}

// evaluate is the one prologue around every evaluation of a program: panic
// containment, the resource budget, elided-trace reports, external and
// prolog variable binding, and the counts on the way out. Eval runs the
// query body under it, Transform the statement list and the apply pass.
func (p *Program) evaluate(ctx context.Context, ctxItem xdm.Item, vars map[string]xdm.Sequence, opts Options, body compiledExpr) (out xdm.Sequence, err error) {
	defer func() {
		if r := recover(); r != nil {
			entry := "Eval"
			if p.IsUpdate() {
				entry = "Transform"
			}
			out = nil
			err = &Error{Code: CodePanic, Msg: fmt.Sprintf("internal panic contained at %s boundary: %v", entry, r)}
		}
	}()
	if opts.Limits.MaxDepth == 0 {
		opts.Limits.MaxDepth = defaultMaxDepth
	}
	c := &evalCtx{
		opts:    opts,
		bud:     newBudget(ctx, opts.Limits, opts.Stats != nil),
		tr:      opts.Tracer,
		globals: make([]xdm.Sequence, len(p.globalNames)+p.memos),
		gset:    make([]bool, len(p.globalNames)+p.memos),
	}
	// The root frame is the stack's first window, in the context's own
	// allocation when it fits there.
	c.stack = c.slots[:0]
	c.frame, _ = c.push(p.frameSize)
	if st := opts.Stats; st != nil {
		// Deferred, so failed and even panicked evaluations report too;
		// requesting stats forced the budget on.
		defer func() {
			b := c.bud
			st.Steps, st.Nodes, st.OutputBytes, st.TraceEvents = b.steps, b.nodes, b.bytes, b.traceHits
		}()
	}
	// Trace sites the optimizer's dead-code pass removed are reported
	// up front, once per evaluation: the host still learns the program
	// traced here, which Galax-era tracing never did.
	if c.tr != nil {
		for _, et := range p.elided {
			c.tr.Emit(obs.Event{Kind: obs.TraceHit, Line: et.P.Line, Col: et.P.Col,
				Values: et.Values, Elided: true})
		}
	}
	for name, val := range vars {
		if slot, ok := p.globalIdx[name]; ok {
			c.globals[slot] = val
			c.gset[slot] = true
		}
	}
	if ctxItem != nil {
		c.focus = focus{item: ctxItem, pos: 1, size: 1, set: true}
	}
	// Prolog variables evaluate in order, each seeing the external
	// variables plus the prolog variables before it.
	for _, st := range p.prolog {
		if st.init == nil {
			if !c.gset[st.slot] {
				return nil, &Error{Code: "XPDY0002", Pos: st.pos,
					Msg: fmt.Sprintf("external variable $%s not supplied", st.name)}
			}
			continue
		}
		val, err := st.init(c)
		if err != nil {
			return nil, err
		}
		c.globals[st.slot] = val
		c.gset[st.slot] = true
	}
	return body(c)
}

// SerializeSeq renders a sequence for display: nodes as XML, atomic values
// as their string values, items separated by single spaces.
func SerializeSeq(seq xdm.Sequence) string {
	parts := make([]string, len(seq))
	for i, it := range seq {
		if n, ok := xdm.IsNode(it); ok {
			parts[i] = n.String()
		} else {
			parts[i] = it.StringValue()
		}
	}
	return strings.Join(parts, " ")
}

// errAt converts any evaluation error into a positioned *Error.
func errAt(err error, pos ast.Pos) error {
	switch e := err.(type) {
	case *Error:
		return e // already positioned (inner frame wins)
	case *xdm.Error:
		return &Error{Code: e.Code, Msg: e.Msg, Pos: pos}
	case *funclib.ErrorValue:
		return &Error{Code: e.Code, Msg: e.Desc, Pos: pos}
	}
	return &Error{Code: "FOER0000", Msg: err.Error(), Pos: pos}
}

// errorParts extracts (code, description) from any evaluation error.
func errorParts(err error) (code, msg string) {
	switch e := err.(type) {
	case *Error:
		return e.Code, e.Msg
	case *xdm.Error:
		return e.Code, e.Msg
	case *funclib.ErrorValue:
		return e.Code, e.Desc
	}
	return "FOER0000", err.Error()
}
