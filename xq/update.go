package xq

// update.go is the public face of the FLUX-style update sublanguage:
// compile an update program once, then Transform any number of documents.
// Each Transform evaluates every statement against the UNCHANGED input
// snapshot, collects a pending-update list, and applies it in one pass over
// one logical copy-on-write clone — only the spine from the root to each
// touched node is copied, and the result comes back frozen, so structural/
// value indexes memoized on either snapshot stay valid by construction.
//
//	up, err := xq.CompileUpdate(`delete //draft; insert <audited/> into /doc`)
//	doc, err := xq.ParseXML(src)
//	out, err := up.Transform(context.Background(), xq.Freeze(doc))
//	// doc is untouched; out is the new frozen root.
//
// The statement grammar:
//
//	insert  <expr> into|before|after <expr> ;
//	delete  <expr> ;
//	replace <expr> with <expr> ;
//	rename  <expr> as <expr> ;
//	for $v in <expr> [where <expr>] return <stmt or (stmts)>
//
// sequenced with ';', sharing the query prolog (declare function/variable/
// namespace). Errors carry XQuery Update Facility codes (XUTY*/XUDY*); see
// internal/xquery/interp/update.go for the exact family.

import "context"

// WithEagerCopyApply forces Transform to apply the pending-update list
// against a full eager deep copy of the input instead of the lazy
// copy-on-write clone. The observable result is identical; this is the
// naive reference implementation the differential harness compares the COW
// path against, and is exported for exactly that purpose.
func WithEagerCopyApply(on bool) Option { return func(c *config) { c.eagerApply = on } }

// CompileUpdate parses, optimizes, and compiles an update program. The
// result is a *Query whose Transform method applies it; Eval on an update
// query is an error. Compile-time options (WithOptLevel, WithTraceEffectful,
// WithAccessPaths) and runtime options work exactly as for Compile.
func CompileUpdate(src string, opts ...Option) (*Query, error) {
	return compileQuery(src, opts, true)
}

// MustCompileUpdate is CompileUpdate that panics on error, for static
// programs.
func MustCompileUpdate(src string, opts ...Option) *Query {
	q, err := CompileUpdate(src, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// IsUpdate reports whether this query was compiled as an update program
// (CompileUpdate) rather than a query (Compile).
func (q *Query) IsUpdate() bool { return q.prog.IsUpdate() }

// Transform applies a compiled update program to doc and returns the
// transformed tree as a new frozen root. doc itself is never mutated: it is
// frozen (becoming the shared source of the lazy copy) and stays fully
// valid — both snapshots can be queried, indexed, and transformed again.
//
// Options override the query's compile-time defaults for this call alone,
// exactly as for Eval; WithStats additionally reports UpdatesApplied and
// SpineNodes (how many nodes the copy-on-write spine materialized).
//
// Transform shares Eval's safety contract: concurrent calls on one Query
// are safe, cancellation and Limits produce coded LOPS* errors, and engine
// panics are contained as LOPS0009.
func (q *Query) Transform(ctx context.Context, doc *Node, opts ...Option) (*Node, error) {
	var out *Node
	err := q.run(opts, true, func(cfg *config) error {
		var err error
		out, err = q.prog.Transform(ctx, doc, cfg.vars, cfg.opts, cfg.eagerApply)
		return err
	})
	return out, err
}
