// Package optimizer rewrites parsed XQuery modules: constant folding and
// dead-let elimination, the optimization that powers the paper's most
// painful debugging anecdote.
//
// Galax "did dead-code analysis. Simply adding the trace introduces a dead
// variable $dummy, which the Galax compiler helpfully optimizes away — along
// with the call to trace." The fix, shipped in a later Galax, was to treat
// trace as effectful. Options.TraceIsEffectful models both eras: false is
// the buggy behavior (let $dummy := trace(...) disappears), true is the fix.
package optimizer

import (
	"fmt"

	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/shapes"
)

// Level selects how much rewriting happens.
type Level int

// Optimization levels.
const (
	// O0 performs no rewriting.
	O0 Level = iota
	// O1 folds constants.
	O1
	// O2 folds constants and eliminates dead let bindings.
	O2
)

// Options configures the optimizer.
type Options struct {
	Level Level
	// TraceIsEffectful, when true, stops dead-let elimination from deleting
	// bindings whose value calls fn:trace (the post-fix Galax behavior).
	// False reproduces the bug the paper fought.
	TraceIsEffectful bool
	// DisableAccessPaths turns off access-path planning (index scans),
	// leaving every step a tree walk. Used by the differential oracle to
	// prove indexed ≡ unindexed semantics.
	DisableAccessPaths bool
	// DisableShapes turns off the static shape analysis consumers: dead-let
	// eliminability falls back to the syntactic whitelist and predicate
	// widening in access-path planning is skipped. Used by the differential
	// oracle to prove shapes-on ≡ shapes-off semantics.
	DisableShapes bool
}

// Stats reports what the optimizer did.
type Stats struct {
	FoldedConstants int
	EliminatedLets  int
	// ElidedTraces counts fn:trace call sites that dead-let elimination
	// removed (only possible when TraceIsEffectful is false, the Galax-era
	// behavior). The sites themselves are recorded on the module so the
	// runtime can still report them to a structured tracer.
	ElidedTraces int
	// Access-path planning counters: steps assigned each access path, and
	// [@attr = 'v'] predicates folded into an index probe.
	IndexScans, TreeWalks, FoldedPredicates int
	// ShapeProvenTotal counts dead lets the syntactic whitelist refused but
	// the shape analysis proved total (and therefore eliminable).
	ShapeProvenTotal int
	// ShapeWidenedPredicates counts `//`-fusions accepted only because the
	// shape analysis proved the residual predicate non-positional.
	ShapeWidenedPredicates int
}

// Optimize rewrites the module in place (expressions are replaced, shared
// subtrees are never mutated) and returns statistics. An update program's
// prolog gets exactly the query treatment; its statements have their
// expression leaves rewritten (see rewriteStmts).
func Optimize(mod *ast.Module, opts Options) Stats {
	o := &optimizer{opts: opts, userFuncs: map[string]bool{}, scope: map[string]int{}}
	for _, f := range mod.Functions {
		o.userFuncs[f.Name] = true
	}
	if opts.Level == O0 {
		return o.stats
	}
	// Global variables are in scope everywhere (the prolog evaluates them
	// before the body; a reference to a declared global cannot itself raise).
	for _, v := range mod.Vars {
		o.bind(v.Name)
	}
	for _, f := range mod.Functions {
		for _, p := range f.Params {
			o.bind(p.Name)
		}
		f.Body = o.rewrite(f.Body)
		for _, p := range f.Params {
			o.unbind(p.Name)
		}
	}
	for _, v := range mod.Vars {
		if v.Val != nil {
			v.Val = o.rewrite(v.Val)
		}
	}
	if mod.Stmts != nil {
		mod.Stmts = o.rewriteStmts(mod.Stmts)
	} else {
		mod.Body = o.rewrite(mod.Body)
	}
	mod.ElidedTraces = o.elided
	return o.stats
}

type optimizer struct {
	opts      Options
	stats     Stats
	userFuncs map[string]bool
	// scope counts, per variable name, the enclosing bindings currently in
	// force during the rewrite walk. Dead-let elimination consults it: a
	// reference to a bound variable is a pure slot read, while one to an
	// unbound name would be a static error (XPST0008) that elimination
	// must not hide.
	scope map[string]int
	// elided accumulates the fn:trace call sites dead-let elimination
	// removed; Optimize stashes them on the module for the runtime.
	elided []ast.ElidedTrace
}

// bind records that $name is in scope for subsequent rewrites; unbind
// reverses it. Empty names (absent positional/catch vars) are ignored.
func (o *optimizer) bind(name string) {
	if name != "" {
		o.scope[name]++
	}
}

func (o *optimizer) unbind(name string) {
	if name != "" {
		o.scope[name]--
	}
}

// rewrite returns the optimized form of e. Children are rewritten first, in
// source order (which is the order Module.ElidedTraces lists dropped trace
// sites in), then the node itself is folded. Only the four binders name
// their children here, because each child is rewritten under a different
// scope; everything else is rebuilt by ast.MapChildren.
func (o *optimizer) rewrite(e ast.Expr) ast.Expr {
	switch n := e.(type) {
	case *ast.FLWOR:
		return o.rewriteFLWOR(n)
	case *ast.Quantified:
		out := *n
		out.Vars = make([]ast.ForClause, len(n.Vars))
		for i, v := range n.Vars {
			v.In = o.rewrite(v.In)
			out.Vars[i] = v
			o.bind(v.Var)
		}
		out.Satisfy = o.rewrite(n.Satisfy)
		for _, v := range n.Vars {
			o.unbind(v.Var)
		}
		return &out
	case *ast.Typeswitch:
		out := *n
		out.Operand = o.rewrite(n.Operand)
		out.Cases = make([]ast.TypeswitchCase, len(n.Cases))
		for i, cs := range n.Cases {
			o.bind(cs.Var)
			cs.Ret = o.rewrite(cs.Ret)
			o.unbind(cs.Var)
			out.Cases[i] = cs
		}
		o.bind(n.DefaultVar)
		out.Default = o.rewrite(n.Default)
		o.unbind(n.DefaultVar)
		return &out
	case *ast.TryCatch:
		out := *n
		out.Try = o.rewrite(n.Try)
		o.bind(n.CatchVar)
		o.bind(n.CatchCodeVar)
		out.Catch = o.rewrite(n.Catch)
		o.unbind(n.CatchVar)
		o.unbind(n.CatchCodeVar)
		return &out
	}
	switch out := ast.MapChildren(e, o.rewrite).(type) {
	case *ast.Binary:
		return o.foldBinary(out)
	case *ast.Unary:
		if lit, ok := out.Operand.(*ast.IntLit); ok && out.Minus {
			o.stats.FoldedConstants++
			return &ast.IntLit{Base: out.Base, Value: -lit.Value}
		}
		return out
	case *ast.IfExpr:
		if b, known := o.literalEBV(out.Cond); known {
			o.stats.FoldedConstants++
			if b {
				return out.Then
			}
			return out.Else
		}
		return out
	case *ast.PathExpr:
		if !o.opts.DisableAccessPaths {
			o.planPath(out)
		}
		return out
	case *ast.FunctionCall:
		return o.foldCall(out)
	default:
		return out
	}
}

// rewriteFLWOR rewrites clauses and, at O2, removes dead eliminable lets.
func (o *optimizer) rewriteFLWOR(n *ast.FLWOR) ast.Expr {
	clauses := make([]ast.FLWORClause, 0, len(n.Clauses))
	var bound []string // clause vars pushed onto the scope, in order
	for _, cl := range n.Clauses {
		switch c := cl.(type) {
		case ast.ForClause:
			clauses = append(clauses, ast.ForClause{Var: c.Var, PosVar: c.PosVar, In: o.rewrite(c.In), P: c.P})
			o.bind(c.Var)
			o.bind(c.PosVar)
			bound = append(bound, c.Var, c.PosVar)
		case ast.LetClause:
			clauses = append(clauses, ast.LetClause{Var: c.Var, Val: o.rewrite(c.Val), P: c.P})
			o.bind(c.Var)
			bound = append(bound, c.Var)
		}
	}
	out := &ast.FLWOR{Base: n.Base, Clauses: clauses, Stable: n.Stable}
	if n.Where != nil {
		out.Where = o.rewrite(n.Where)
	}
	for _, spec := range n.OrderBy {
		out.OrderBy = append(out.OrderBy, ast.OrderSpec{
			Key: o.rewrite(spec.Key), Descending: spec.Descending, EmptyLeast: spec.EmptyLeast})
	}
	out.Return = o.rewrite(n.Return)
	for _, name := range bound {
		o.unbind(name)
	}

	if o.opts.Level < O2 {
		return out
	}
	// Dead-let elimination: drop `let $v := E` when $v is unused afterward
	// and E is eliminable (no effects, cannot raise). This is exactly the
	// pass that ate the paper's `let $dummy := trace("x=", $x)`. The scope
	// is rebuilt progressively so each let's value is judged under exactly
	// the bindings it would evaluate under.
	kept := out.Clauses[:0:len(out.Clauses)]
	lastElided := 0 // elided-trace records from the most recent dropped let
	for i, cl := range out.Clauses {
		lc, isLet := cl.(ast.LetClause)
		if !isLet || !o.eliminable(lc.Val) || o.usedAfter(out, i, lc.Var) {
			kept = append(kept, cl)
			switch c := cl.(type) {
			case ast.ForClause:
				o.bind(c.Var)
				o.bind(c.PosVar)
			case ast.LetClause:
				o.bind(c.Var)
			}
			continue
		}
		o.stats.EliminatedLets++
		lastElided = o.recordElidedTraces(lc.Val)
		o.bind(lc.Var)
	}
	for _, name := range bound {
		o.unbind(name)
	}
	if len(kept) == 0 && out.Where == nil && len(out.OrderBy) == 0 {
		// Every clause was a dead let: the FLWOR reduces to its return.
		return out.Return
	}
	if len(kept) == 0 {
		// A where/order-by needs at least one clause; keep a harmless one —
		// the last clause, whose trace sites (if any) are live again.
		kept = append(kept, out.Clauses[len(out.Clauses)-1])
		o.stats.EliminatedLets--
		o.elided = o.elided[:len(o.elided)-lastElided]
		o.stats.ElidedTraces -= lastElided
	}
	out.Clauses = kept
	return out
}

// recordElidedTraces scans a dead let's value for fn:trace calls and
// records each as an elided site (position plus the statically-known
// arguments). Returns how many were recorded.
func (o *optimizer) recordElidedTraces(e ast.Expr) int {
	n := 0
	ast.Walk(e, func(x ast.Expr) bool {
		call, ok := x.(*ast.FunctionCall)
		if !ok || (call.Name != "trace" && call.Name != "fn:trace") {
			return true
		}
		et := ast.ElidedTrace{P: call.P}
		for _, a := range call.Args {
			switch lit := a.(type) {
			case *ast.StringLit:
				et.Values = append(et.Values, lit.Value)
			case *ast.IntLit:
				et.Values = append(et.Values, fmt.Sprintf("%d", lit.Value))
			case *ast.DoubleLit:
				et.Values = append(et.Values, fmt.Sprintf("%g", lit.Value))
			case *ast.DecimalLit:
				et.Values = append(et.Values, fmt.Sprintf("%g", lit.Value))
			default:
				// The computation is gone; all we can report is that an
				// argument existed here.
				et.Values = append(et.Values, "…")
			}
		}
		o.elided = append(o.elided, et)
		o.stats.ElidedTraces++
		n++
		return true
	})
	return n
}

// usedAfter reports whether $name is referenced in any clause after index i,
// or in the where/order-by/return. Shadowing is ignored (conservative: a
// shadowed use still counts as a use).
func (o *optimizer) usedAfter(n *ast.FLWOR, i int, name string) bool {
	used := usesVar(n.Where, name) || usesVar(n.Return, name)
	for _, cl := range n.Clauses[i+1:] {
		switch c := cl.(type) {
		case ast.ForClause:
			used = used || usesVar(c.In, name)
		case ast.LetClause:
			used = used || usesVar(c.Val, name)
		}
	}
	for _, spec := range n.OrderBy {
		used = used || usesVar(spec.Key, name)
	}
	return used
}

// eliminable reports whether a dead `let $v := e` binding may be dropped
// without changing observable behavior. That requires two properties at
// once: evaluating e has no effect beyond its value, AND evaluating e can
// never raise an error — eliminating an expression that would have raised
// turns a failing query into a succeeding one, the cross-configuration
// divergence the differential harness exists to catch (1 idiv 0, failing
// casts, unknown functions, …).
//
// Two judges answer, strictest-first: the historical syntactic whitelist,
// then (unless disabled) the shape analysis's totality proof. The shapes
// path must re-check the two properties the whitelist enforced by shape
// alone: trace effectfulness (shapes considers fn:trace total, which is
// true but ignores the configured side channel) and shadowed built-ins
// (handled inside shapes via Scope.IsUserFunc). The sweep in
// eliminable_test.go pins the agreement: everything the whitelist accepts,
// shapes must also prove total.
func (o *optimizer) eliminable(e ast.Expr) bool {
	if o.eliminableSyntactic(e) {
		return true
	}
	if o.opts.DisableShapes {
		return false
	}
	if o.opts.TraceIsEffectful && containsTrace(e) {
		return false
	}
	if shapes.TotalExpr(e, shapes.Scope{
		InScope:    func(name string) bool { return o.scope[name] > 0 },
		IsUserFunc: func(name string) bool { return o.userFuncs[name] },
	}) {
		o.stats.ShapeProvenTotal++
		return true
	}
	return false
}

// containsTrace reports whether any fn:trace call occurs in e. Dropping one
// is only legal when the configuration says trace has no side channel.
func containsTrace(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if call, ok := x.(*ast.FunctionCall); ok && (call.Name == "trace" || call.Name == "fn:trace") {
			found = true
			return false
		}
		return !found
	})
	return found
}

// eliminableSyntactic is the pre-shapes whitelist of total expressions:
// literals, references to variables the walk has seen bound (an unbound
// name is a static XPST0008 the optimizer must not hide), sequences of
// eliminable parts, true()/false(), and — in the Galax-era configuration
// the paper fought — fn:trace over eliminable arguments. Everything else
// is conservatively kept. Retained both as the O2+noshapes behavior and as
// the agreement baseline the shapes audit tests against.
func (o *optimizer) eliminableSyntactic(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.IntLit, *ast.StringLit, *ast.DecimalLit, *ast.DoubleLit, *ast.EmptySeq:
		return true
	case *ast.VarRef:
		return o.scope[n.Name] > 0
	case *ast.SequenceExpr:
		for _, it := range n.Items {
			if !o.eliminableSyntactic(it) {
				return false
			}
		}
		return true
	case *ast.Unary:
		// Unary minus over an eliminable operand still needs the operand to
		// be numeric to be total; only a literal guarantees that statically.
		switch n.Operand.(type) {
		case *ast.IntLit, *ast.DecimalLit, *ast.DoubleLit:
			return true
		}
		return false
	case *ast.FunctionCall:
		if o.userFuncs[n.Name] {
			return false
		}
		switch n.Name {
		case "true", "fn:true", "false", "fn:false":
			return len(n.Args) == 0
		case "trace", "fn:trace":
			// fn:trace is total (it formats and forwards its arguments), so
			// a dead trace binding is eliminable exactly when trace is not
			// considered effectful — the paper's Galax-era behavior.
			if o.opts.TraceIsEffectful || len(n.Args) == 0 {
				return false
			}
			for _, a := range n.Args {
				if !o.eliminableSyntactic(a) {
					return false
				}
			}
			return true
		}
		return false
	}
	return false
}
