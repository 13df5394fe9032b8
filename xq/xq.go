// Package xq is the public face of the lopsided XQuery engine: compile an
// XQuery-subset program, optionally optimize it, and evaluate it against XML
// documents.
//
// The engine reproduces the draft-2004 semantics described in "Lopsided
// Little Languages" (Bloom, SIGMOD 2005): flat sequences, existential
// general comparisons, leading-attribute folding, untyped atomization, a
// variadic Galax-style fn:trace, and — behind options — the dead-code
// elimination behavior that made tracing so painful.
//
// Quick start:
//
//	q, err := xq.Compile(`for $b in /lib/book return $b/title`)
//	doc, err := xq.ParseXML(libraryXML)
//	out, err := q.Eval(context.Background(), doc)
//	fmt.Println(xq.Serialize(out))
//
// # Observability
//
// Compile and Eval share one functional-options vocabulary. Options given
// to Compile become the query's defaults; options given to Eval apply to
// that evaluation alone:
//
//	var st xq.EvalStats
//	tr := &xq.Collector{}
//	out, err := q.Eval(ctx, doc, xq.WithStats(&st), xq.WithTracer(tr))
//	fmt.Println(st.String())         // steps/nodes/bytes vs budgets, wall time
//	fmt.Println(q.Explain())         // the compiled plan, human-readable
//	fmt.Println(xq.MetricsSnapshot()) // process-wide counters + latency
//
// A Tracer receives structured events for compile phases, FLWOR clause
// iterations, user-function calls, and every fn:trace hit — including the
// sites dead-code elimination removed, which arrive flagged Elided instead
// of silently vanishing (the paper's Galax-era complaint).
package xq

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"lopsided/internal/obs"
	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/lexer"
	"lopsided/internal/xquery/optimizer"
	"lopsided/internal/xquery/parser"
	"lopsided/internal/xquery/shapes"
)

// Sequence is an XQuery result sequence (always flat).
type Sequence = xdm.Sequence

// Item is a single XQuery item: an atomic value or a node.
type Item = xdm.Item

// Node is an XML tree node.
type Node = xmltree.Node

// Re-exported atomic value constructors for building external variables.
type (
	// String is an xs:string value.
	String = xdm.String
	// Integer is an xs:integer value.
	Integer = xdm.Integer
	// Double is an xs:double value.
	Double = xdm.Double
	// Boolean is an xs:boolean value.
	Boolean = xdm.Boolean
)

// NewNodeItem wraps an XML node as a sequence item.
func NewNodeItem(n *Node) Item { return xdm.NewNode(n) }

// Singleton wraps one item as a sequence.
func Singleton(it Item) Sequence { return xdm.Singleton(it) }

// OptLevel selects optimizer effort.
type OptLevel = optimizer.Level

// Optimizer levels: O0 none, O1 constant folding, O2 adds dead-let
// elimination (the Galax pass from the paper's trace anecdote).
const (
	O0 = optimizer.O0
	O1 = optimizer.O1
	O2 = optimizer.O2
)

// DupAttrPolicy re-exports the duplicate-attribute policies.
type DupAttrPolicy = interp.DupAttrPolicy

// Duplicate computed-attribute policies (see the paper's T3b example).
const (
	DupAttrLastWins  = interp.DupAttrLastWins
	DupAttrFirstWins = interp.DupAttrFirstWins
	DupAttrGalaxBug  = interp.DupAttrGalaxBug
	DupAttrError     = interp.DupAttrError
)

// Limits bounds each evaluation of a query: wall-clock timeout, evaluation
// steps, constructed nodes, output bytes, and recursion depth. The zero
// value imposes no limits. See the README's "Error model & resource
// limits" section for the LOPS* code each exhausted budget raises.
type Limits = interp.Limits

// ---- Observability surface (re-exported from internal/obs) ----

// Tracer receives structured engine events; see the package comment. A
// Tracer installed on a Query that is evaluated concurrently must be safe
// for concurrent use.
type Tracer = obs.Tracer

// Event is one structured engine observation delivered to a Tracer.
type Event = obs.Event

// EventKind classifies an Event.
type EventKind = obs.EventKind

// Event kinds, re-exported for switch statements on Event.Kind.
const (
	PhaseBegin = obs.PhaseBegin
	PhaseEnd   = obs.PhaseEnd
	ClauseIter = obs.ClauseIter
	FuncCall   = obs.FuncCall
	TraceHit   = obs.TraceHit
)

// TraceFunc adapts a plain fn:trace consumer (the historical WithTracer
// callback shape) to the Tracer interface; only live fn:trace hits are
// forwarded.
type TraceFunc = obs.TraceFunc

// Collector is a Tracer that records every event, for tests and tools.
type Collector = obs.Collector

// NopTracer is the zero-allocation no-op Tracer. Installing it keeps every
// emission point live while discarding the events — the measured-overhead
// baseline for the tracing machinery.
var NopTracer = obs.Nop

// NewLogTracer returns a Tracer writing one line per event to w.
var NewLogTracer = obs.NewLogTracer

// EvalStats reports what one evaluation consumed next to the budgets it
// ran under; fill one via WithStats.
type EvalStats = obs.EvalStats

// MetricsSnapshot copies the engine's process-wide metrics: compile and
// eval counts, error and limit-hit counts, plan-cache hits/misses/
// evictions, and latency histograms. The same data is published through
// expvar under the key "lopsided_engine".
func MetricsSnapshot() obs.Snapshot { return obs.MetricsSnapshot() }

// ---- Options ----

// planOptions are the settings that change the compiled plan: the
// optimizer's inputs, plus whether shape inference runs. Everything else in
// config is runtime-only and applied per returned *Query. The struct is
// comparable and is the options part of the plan-cache key (see cache.go),
// so a new compile-affecting option is one field here and one With… setter
// below.
type planOptions struct {
	optimizer.Options
	// noShapes skips shape inference: no compile-time static errors and no
	// shape annotations in EXPLAIN (see WithShapes).
	noShapes bool
}

type config struct {
	plan planOptions
	// opts is the evaluation's runtime configuration, handed to the
	// compiled program as is: tracer, resolver, policy, limits, stats.
	opts interp.Options
	vars map[string]Sequence
	// eagerApply makes Transform deep-copy instead of COW-clone (the
	// differential oracle's reference path; see WithEagerCopyApply).
	eagerApply bool
	// noProjection / noStreamEval disable the streaming tiers for queries
	// compiled via CompileStream (see WithProjection, WithStreamEval).
	noProjection bool
	noStreamEval bool
}

// Option configures compilation and evaluation. One vocabulary serves
// both: options passed to Compile become the query's defaults, and options
// passed to Query.Eval override them for that single evaluation.
// Compile-only options (WithOptLevel, WithTraceEffectful) have no effect
// when passed to Eval — the plan is already built.
type Option func(*config)

// WithOptLevel sets the optimizer level (default O2). Compile-time only.
func WithOptLevel(l OptLevel) Option { return func(c *config) { c.plan.Level = l } }

// WithTraceEffectful controls whether fn:trace is protected from dead-code
// elimination. True (the default) is the post-fix Galax behavior; false
// reproduces the bug that silently swallowed the paper's tracing.
// Compile-time only.
func WithTraceEffectful(on bool) Option { return func(c *config) { c.plan.TraceIsEffectful = on } }

// WithShapes controls the static shape & cardinality analysis (default
// true): a forward inference pass over the optimized AST whose facts raise
// inevitable type errors (XPTY0004, XPST0005) at compile time (check
// IsStaticError) and annotate every EXPLAIN plan node. Nothing else reads
// them — the plan and every runtime check are the same either way — so the
// differential oracle runs the off configuration to prove shapes-on ≡
// shapes-off semantics. Compile-time only.
func WithShapes(on bool) Option { return func(c *config) { c.plan.noShapes = !on } }

// WithAccessPaths controls access-path planning at O1+ (default true):
// rewriting `//name` and `[@attr = 'v']` shapes onto structural/value
// indexes of frozen trees, with tree-walk fallback when no index is
// available. Disabling it forces every step to walk — the differential
// oracle uses the off configuration to prove indexed ≡ unindexed
// semantics. Compile-time only.
func WithAccessPaths(on bool) Option { return func(c *config) { c.plan.DisableAccessPaths = !on } }

// WithTracer installs the structured event consumer. To reproduce the
// classic fn:trace-only callback, wrap it: WithTracer(xq.TraceFunc(f)).
func WithTracer(t Tracer) Option { return func(c *config) { c.opts.Tracer = t } }

// WithStats arranges for st to be overwritten with the evaluation's
// resource consumption (steps, nodes, output bytes, wall time, trace
// events, plan-cache provenance) next to the budgets it ran under.
// Requesting stats turns on resource counting even when no Limits are set.
func WithStats(st *EvalStats) Option { return func(c *config) { c.opts.Stats = st } }

// WithVars binds external variables (names without '$') for the
// evaluation.
func WithVars(vars map[string]Sequence) Option { return func(c *config) { c.vars = vars } }

// WithDocResolver installs the fn:doc resolver.
func WithDocResolver(f func(uri string) (*Node, error)) Option {
	return func(c *config) { c.opts.DocResolver = f }
}

// WithDupAttrPolicy selects duplicate computed-attribute behavior.
func WithDupAttrPolicy(p DupAttrPolicy) Option { return func(c *config) { c.opts.DupAttr = p } }

// WithLimits installs the evaluation sandbox: every Eval of the query runs
// under the given resource budgets and returns a coded LOPS* error when one
// is exhausted, instead of hanging or exhausting host memory.
func WithLimits(l Limits) Option { return func(c *config) { c.opts.Limits = l } }

// WithProjection controls the path-projection tier of streaming evaluation
// (default true): when a StreamQuery's static analysis produced a path set,
// EvalReader parses only the subtrees the query can touch. Disabling it
// forces a full parse — the differential oracle runs the off configuration
// to prove projected ≡ materialized semantics.
func WithProjection(on bool) Option { return func(c *config) { c.noProjection = !on } }

// WithStreamEval controls the pure-streaming tier (default true): when the
// classifier recognized the query's downward-axis fragment, EvalReader
// answers straight from the token stream with O(depth) memory and no tree.
// Disabling it falls back to the projection tier (or materialization).
func WithStreamEval(on bool) Option { return func(c *config) { c.noStreamEval = !on } }

// ---- Query ----

// Query is a compiled, optimized XQuery program with an explicit
// compile-once / evaluate-many contract: compilation (parse, optimize,
// closure-lowering) happens once, and the compiled plan is immutable
// afterward.
//
// A *Query is safe for concurrent use. Any number of goroutines may call
// Eval on one Query simultaneously: every evaluation allocates its own
// variable frames and resource budget over the shared read-only plan. The
// only shared mutable touch points are the callbacks the caller installed
// (WithTracer, WithDocResolver), which must themselves be safe for
// concurrent invocation.
type Query struct {
	prog *interp.Program
	cfg  config
	// Stats reports what the optimizer did at compile time.
	Stats optimizer.Stats
	// cacheHit records whether this query's plan came out of a plan cache,
	// reported through EvalStats.PlanCacheHit.
	cacheHit bool
}

// compile runs parse → optimize → shapes → lower with metrics and (when a
// tracer is configured) phase events. It is the one compilation path behind
// Compile, CompileUpdate and every Cache. FLUX defines an update program as
// statements over the same prolog and core expression language as a query,
// so update only chooses the grammar src is parsed with: both yield an
// *ast.Module, and every later stage has one entry point.
func compile(src string, cfg *config, update bool) (_ *interp.Program, _ optimizer.Stats, err error) {
	obs.PublishExpvar()
	reg := obs.Default()
	reg.Compiles.Add(1)
	start := time.Now()
	defer func() {
		reg.CompileLatency.Observe(time.Since(start))
		if err != nil {
			reg.CompileErrors.Add(1)
		}
	}()
	phase := func(name string, run func()) {
		tr := cfg.opts.Tracer
		if tr == nil {
			run()
			return
		}
		tr.Emit(obs.Event{Kind: obs.PhaseBegin, Name: name})
		t := time.Now()
		run()
		tr.Emit(obs.Event{Kind: obs.PhaseEnd, Name: name, Elapsed: time.Since(t)})
	}

	var (
		mod   *ast.Module
		stats optimizer.Stats
		info  *shapes.Info
		prog  *interp.Program
	)
	phase("parse", func() {
		if update {
			mod, err = parser.ParseUpdate(src)
		} else {
			mod, err = parser.Parse(src)
		}
	})
	if err != nil {
		return nil, optimizer.Stats{}, err
	}
	phase("optimize", func() { stats = optimizer.Optimize(mod, cfg.plan.Options) })
	// Shape inference runs between optimize and lower, over the AST the
	// compiler lowers, so EXPLAIN's annotations describe what runs.
	if !cfg.plan.noShapes {
		phase("shapes", func() { info = shapes.InferModule(mod) })
	}
	phase("compile", func() { prog, err = interp.NewProgramWithShapes(mod, info) })
	if err != nil {
		return nil, optimizer.Stats{}, err
	}
	// Inevitable-error diagnostics are raised only after lowering succeeds,
	// so the historical compile errors (XQST0034 duplicate function,
	// XQST0040 duplicate attribute, …) keep winning over the static type
	// errors. Update inference records none (statements run conditionally
	// by nature), so this never fires for one.
	if info != nil {
		if d := info.FirstDiag(); d != nil {
			return nil, optimizer.Stats{}, &interp.Error{Code: d.Code, Msg: d.Msg, Pos: d.P, Static: true}
		}
	}
	return prog, stats, nil
}

// newQuery is the start of every compile entry point: a Query holding the
// defaults (O2, fn:trace protected) with opts applied in place (one
// allocation less per cache hit than a config copied in), awaiting its plan.
func newQuery(opts []Option) *Query {
	q := &Query{cfg: config{plan: planOptions{Options: optimizer.Options{Level: O2, TraceIsEffectful: true}}}}
	for _, o := range opts {
		o(&q.cfg)
	}
	return q
}

// compileQuery is the uncached compile behind Compile and CompileUpdate.
func compileQuery(src string, opts []Option, update bool) (*Query, error) {
	q := newQuery(opts)
	prog, stats, err := compile(src, &q.cfg, update)
	if err != nil {
		return nil, err
	}
	q.prog, q.Stats = prog, stats
	return q, nil
}

// Compile parses, optimizes, and compiles an XQuery program: the AST is
// lowered once into a closure-compiled plan with slot-resolved variables
// and pre-bound function dispatch, so repeated evaluations pay no
// per-evaluation analysis cost.
func Compile(src string, opts ...Option) (*Query, error) {
	return compileQuery(src, opts, false)
}

// MustCompile is Compile that panics on error, for static programs.
func MustCompile(src string, opts ...Option) *Query {
	q, err := Compile(src, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// run is the one envelope around every evaluation: Eval, Transform and
// EvalReader are its three bodies, and update says which kind of program the
// calling entry point evaluates. body runs under the effective config (q's
// defaults plus opts). run is the one writer of the EvalStats envelope: it
// zeroes the struct, the program fills in what it counted, EvalReader what
// it streamed, and run the rest — budgets, wall time, plan-cache provenance
// and the COW/index deltas.
func (q *Query) run(opts []Option, update bool, body func(*config) error) error {
	cfg := q.cfg
	for _, o := range opts {
		o(&cfg)
	}
	phase, wrongKind := "eval", "Eval called on an update program (use Transform)"
	if update {
		phase, wrongKind = "transform", "Transform called on a query program (compile with CompileUpdate)"
	}
	if q.IsUpdate() != update {
		return &interp.Error{Code: "XPST0003", Msg: wrongKind}
	}

	tr, st := cfg.opts.Tracer, cfg.opts.Stats
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.PhaseBegin, Name: phase})
	}
	var before EvalStats
	if st != nil {
		*st = EvalStats{}
		before = sharedCounters()
	}
	start := time.Now()
	err := body(&cfg)
	wall := time.Since(start)
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.PhaseEnd, Name: phase, Elapsed: wall})
	}
	reg := obs.Default()
	reg.Evals.Add(1)
	reg.EvalLatency.Observe(wall)
	if err != nil {
		reg.EvalErrors.Add(1)
		if IsLimitError(err) {
			reg.LimitHits.Add(1)
		}
	}
	if st != nil {
		l := cfg.opts.Limits
		st.MaxSteps, st.MaxNodes, st.MaxOutputBytes, st.Timeout = l.MaxSteps, l.MaxNodes, l.MaxOutputBytes, l.Timeout
		st.Wall = wall
		st.PlanCacheHit = q.cacheHit
		after := sharedCounters()
		st.CowClones = after.CowClones - before.CowClones
		st.CowBreaks = after.CowBreaks - before.CowBreaks
		st.IndexHits = after.IndexHits - before.IndexHits
		st.IndexFallbacks = after.IndexFallbacks - before.IndexFallbacks
		st.IndexBuilds = after.IndexBuilds - before.IndexBuilds
	}
	return err
}

// sharedCounters reads the registry's tree-sharing and index counters
// into the EvalStats fields that report them. They are process-wide, so
// run's per-call numbers are deltas around the call; concurrent evaluations
// bleed into each other's deltas (the numbers stay indicative, not exact).
func sharedCounters() EvalStats {
	reg := obs.Default()
	return EvalStats{
		CowClones:      reg.Sharing.CowClones.Load(),
		CowBreaks:      reg.Sharing.CowBreaks.Load(),
		IndexHits:      reg.Index.Hits.Load(),
		IndexFallbacks: reg.Index.Fallbacks.Load(),
		IndexBuilds:    reg.Index.Builds.Load(),
	}
}

// Eval evaluates the query. ctx may be nil (background); doc, when
// non-nil, becomes the context item. Options override the query's
// compile-time defaults for this evaluation only — the common ones are
// WithVars (external variables), WithStats, WithTracer, and WithLimits.
//
// Cancelling ctx (or passing one with a deadline) terminates the
// evaluation with a LOPS0001 error; compile-time Limits still apply. The
// evaluation never panics — internal engine panics are contained at this
// boundary and surface as LOPS0009 errors — so a server can evaluate
// untrusted queries without crashing.
func (q *Query) Eval(ctx context.Context, doc *Node, opts ...Option) (Sequence, error) {
	var out Sequence
	err := q.run(opts, false, func(cfg *config) error {
		var it Item
		if doc != nil {
			it = xdm.NewNode(doc)
		}
		var err error
		out, err = q.prog.Eval(ctx, it, cfg.vars, cfg.opts)
		return err
	})
	return out, err
}

// EvalString evaluates and serializes the result (nodes as XML, atomics as
// string values, space-separated).
func (q *Query) EvalString(ctx context.Context, doc *Node, opts ...Option) (string, error) {
	out, err := q.Eval(ctx, doc, opts...)
	if err != nil {
		return "", err
	}
	return Serialize(out), nil
}

// Explain returns a human-readable dump of the compiled plan: what the
// optimizer did, every global/local slot assignment, pre-bound function
// dispatch, FLWOR clause shapes, and the fn:trace sites dead-code
// elimination removed. This is the `-explain` output of xqrun and
// awbquery.
func (q *Query) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimizer: level O%d, folded-constants=%d eliminated-lets=%d elided-traces=%d\n",
		int(q.cfg.plan.Level), q.Stats.FoldedConstants, q.Stats.EliminatedLets, q.Stats.ElidedTraces)
	if n := q.Stats.IndexScans + q.Stats.TreeWalks; n > 0 {
		fmt.Fprintf(&b, "access paths: index-scans=%d tree-walks=%d folded-predicates=%d\n",
			q.Stats.IndexScans, q.Stats.TreeWalks, q.Stats.FoldedPredicates)
	}
	b.WriteString(q.prog.Explain())
	return b.String()
}

// ParseXML parses an XML document.
func ParseXML(src string) (*Node, error) { return xmltree.Parse(src) }

// ParseXMLReader parses an XML document incrementally from r: the input is
// tokenized as it streams in rather than being buffered into one string
// first, so files and network bodies avoid a second in-memory copy. One
// scanner tokenizes ParseXML's strings and this reader's bytes, so the
// language accepted and the errors reported are the same by construction.
func ParseXMLReader(r io.Reader) (*Node, error) { return xmltree.ParseReader(r) }

// Freeze declares the tree rooted at n immutable, making it eligible for
// structural/value indexing: the first indexed probe against a frozen tree
// builds its index once, and every later evaluation — from any goroutine,
// against any lazy clone source — shares it. The caller promises not to
// mutate the tree afterwards (the same contract lazy cloning imposes on
// clone sources). Trees that are never frozen still evaluate correctly;
// their steps simply walk. It returns n for chaining.
func Freeze(n *Node) *Node { return xmltree.Freeze(n) }

// Serialize renders a result sequence: nodes as XML, atomics as string
// values, items separated by spaces.
func Serialize(seq Sequence) string { return interp.SerializeSeq(seq) }

// ---- Error model ----

// EvalError is a positioned evaluation error carrying an XQuery error code
// (XP*/FO*/XQ* spec codes, or the engine's LOPS* sandbox codes).
type EvalError = interp.Error

// ErrorCode extracts the XQuery error code from any error this package
// returns ("XPST0008", "LOPS0001", …), or "" for uncoded errors such as
// I/O failures from a document resolver. Lex/parse failures report their
// specific static code when they carry one (for example XQST0040 for a
// duplicate literal attribute) and the generic syntax code XPST0003
// otherwise.
func ErrorCode(err error) string {
	switch e := err.(type) {
	case *interp.Error:
		return e.Code
	case *xdm.Error:
		return e.Code
	case *lexer.Error:
		if e.Code != "" {
			return e.Code
		}
		return "XPST0003"
	}
	return ""
}

// IsLimitError reports whether err is a sandbox resource-limit error —
// timeout/cancellation (LOPS0001), step budget (LOPS0002), recursion depth
// (LOPS0003), node budget (LOPS0004) or output budget (LOPS0005).
func IsLimitError(err error) bool { return interp.IsLimitCode(ErrorCode(err)) }

// IsStaticError reports whether err is a compile-time static-analysis error:
// the shapes pass proved the query must raise this code (e.g. XPTY0004) on
// every evaluation, so Compile rejects it up front. Hosts give these the
// "bad query" treatment (CLI static exit status, server HTTP 400) rather
// than the runtime-error one.
func IsStaticError(err error) bool {
	e, ok := err.(*interp.Error)
	return ok && e.Static
}
