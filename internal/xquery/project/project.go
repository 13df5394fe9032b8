// Package project computes static path projections: the set of
// root-anchored paths a compiled query can navigate into its context
// document. The projected parse (xmltree.ParseProjected) then builds only
// matching subtrees plus the ancestor shells needed to reach them.
//
// The analysis is a conservative abstract interpretation over the
// (optimized) AST. Each expression is mapped to the pathset its value may
// occupy inside the context document; consumers mark those pathsets
// according to how they use the value:
//
//   - shell use — existence, counting, names, node identity/order — retains
//     matching elements as name-only shells;
//   - subtree use — atomization, serialization, comparisons, arithmetic,
//     copying into constructors, kind tests — retains whole subtrees;
//   - attribute use retains named attributes on matching elements.
//
// Every approximation errs toward retaining more: extra retention costs
// memory, never correctness. When the analysis cannot bound where a query
// navigates — reverse or sideways axes, fn:root, an unknown expression or
// function — it bails and the engine materializes the full document, so an
// analysis gap also costs memory, never correctness.
package project

import (
	"fmt"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/funclib"
)

// Result is the analysis verdict for one module.
type Result struct {
	// Proj is the computed projection; nil when the query must materialize
	// its input (see Reason).
	Proj *xmltree.Projection
	// Reason explains a nil Proj.
	Reason string
}

// maxPaths bounds the mark set; pathological queries bail to materialize.
const maxPaths = 256

// maxDepth bounds a single projection path's step count.
const maxDepth = 64

// bail aborts the analysis with a reason; recovered in Analyze.
type bailError struct{ reason string }

func bail(format string, args ...any) {
	panic(bailError{fmt.Sprintf(format, args...)})
}

// Analyze computes the projection for a main module evaluated with the
// context document as its focus. A nil Proj in the result means the module
// must run against the fully materialized document.
func Analyze(m *ast.Module) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(bailError)
			if !ok {
				panic(r)
			}
			res = Result{Reason: be.reason}
		}
	}()
	a := &analyzer{funcs: map[string]bool{}}
	for _, f := range m.Functions {
		a.funcs[f.Name] = true
	}
	// The pre-scan runs over the whole module before any analysis, in one
	// fixed order — function bodies, prolog variables, body, each in source
	// order — so when several constructs defeat projection the reported
	// reason is always the first escape in that order, and an escape always
	// wins over a bail of the analysis itself.
	//
	// Function bodies are never evaluated with the document focus (calls
	// build a fresh frame without one), so relative paths inside them fail
	// with XPDY0002 before touching the document — projected or not. They
	// can still reach document nodes through their arguments, which call
	// sites mark as whole subtrees; the pre-scan bans every construct that
	// could navigate OUT of such a subtree (or re-enter the document from
	// anywhere): upward/sideways axes and fn:root.
	for _, f := range m.Functions {
		a.prescan(f.Body)
	}
	for _, v := range m.Vars {
		a.prescan(v.Val)
	}
	a.prescan(m.Body)
	env := environment{ctx: rootSet(), vars: map[string]pathset{}}
	for _, v := range m.Vars {
		if v.Val == nil {
			// External: bound by the host to values that cannot alias a
			// document parsed after binding.
			env.vars[v.Name] = nil
			continue
		}
		env.vars[v.Name] = a.analyze(v.Val, env)
	}
	// The body's value is serialized (or compared) by the caller: full
	// subtrees of whatever document nodes it can yield.
	a.markSubtree(a.analyze(m.Body, env))
	return Result{Proj: &xmltree.Projection{Paths: a.dedupe()}}
}

// xpath is one abstract location: a root-anchored step sequence. covered
// marks locations inside an already subtree-retained region, where further
// marks and extensions are no-ops.
type xpath struct {
	steps   []xmltree.ProjStep
	covered bool
}

type pathset []xpath

func rootSet() pathset { return pathset{{}} }

func coveredSet() pathset { return pathset{{covered: true}} }

type environment struct {
	ctx  pathset
	vars map[string]pathset
}

func (e environment) withVar(name string, ps pathset) environment {
	vars := make(map[string]pathset, len(e.vars)+1)
	for k, v := range e.vars {
		vars[k] = v
	}
	vars[name] = ps
	return environment{ctx: e.ctx, vars: vars}
}

func (e environment) withCtx(ps pathset) environment {
	return environment{ctx: ps, vars: e.vars}
}

type analyzer struct {
	funcs map[string]bool
	marks []xmltree.ProjPath
}

func (a *analyzer) addMark(p xmltree.ProjPath) {
	if len(a.marks) >= maxPaths {
		bail("projection path set exceeds %d paths", maxPaths)
	}
	a.marks = append(a.marks, p)
}

func (a *analyzer) markShell(ps pathset) {
	for _, p := range ps {
		if !p.covered {
			a.addMark(xmltree.ProjPath{Steps: p.steps})
		}
	}
}

func (a *analyzer) markSubtree(ps pathset) {
	for _, p := range ps {
		if !p.covered {
			a.addMark(xmltree.ProjPath{Steps: p.steps, Subtree: true})
		}
	}
}

func (a *analyzer) markAttr(ps pathset, name string) {
	for _, p := range ps {
		if !p.covered {
			a.addMark(xmltree.ProjPath{Steps: p.steps, Attrs: []string{name}})
		}
	}
}

// extend appends one step to every uncovered location.
func extend(ps pathset, step xmltree.ProjStep) pathset {
	out := make(pathset, 0, len(ps))
	for _, p := range ps {
		if p.covered {
			out = append(out, p)
			continue
		}
		if len(p.steps) >= maxDepth {
			bail("projection path exceeds %d steps", maxDepth)
		}
		steps := make([]xmltree.ProjStep, len(p.steps), len(p.steps)+1)
		copy(steps, p.steps)
		out = append(out, xpath{steps: append(steps, step)})
	}
	return out
}

func union(a, b pathset) pathset {
	out := make(pathset, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	if len(out) > maxPaths {
		bail("projection path set exceeds %d paths", maxPaths)
	}
	return out
}

// dedupe normalizes the mark set: exact duplicates collapse, shell and
// attribute marks subsumed by a same-steps subtree mark drop out.
func (a *analyzer) dedupe() []xmltree.ProjPath {
	seen := map[string]int{}
	var out []xmltree.ProjPath
	for _, m := range a.marks {
		key := (&xmltree.Projection{Paths: []xmltree.ProjPath{{Steps: m.Steps}}}).String()
		i, ok := seen[key]
		if !ok {
			seen[key] = len(out)
			out = append(out, m)
			continue
		}
		out[i].Subtree = out[i].Subtree || m.Subtree
		out[i].Attrs = mergeAttrs(out[i].Attrs, m.Attrs)
	}
	for i := range out {
		if out[i].Subtree {
			out[i].Attrs = nil
		}
	}
	return out
}

func mergeAttrs(a, b []string) []string {
	if len(a) > 0 && a[0] == "*" {
		return a
	}
	if len(b) > 0 && b[0] == "*" {
		return b
	}
outer:
	for _, n := range b {
		for _, m := range a {
			if m == n {
				continue outer
			}
		}
		a = append(a, n)
	}
	return a
}

// analyze maps an expression to the pathset of context-document locations
// its value may contain, marking retention requirements for every internal
// use along the way.
func (a *analyzer) analyze(e ast.Expr, env environment) pathset {
	switch e := e.(type) {
	case *ast.StringLit, *ast.IntLit, *ast.DecimalLit, *ast.DoubleLit, *ast.EmptySeq:
		return nil
	case *ast.VarRef:
		return env.vars[e.Name]
	case *ast.ContextItem:
		return env.ctx
	case *ast.SequenceExpr:
		var ps pathset
		for _, it := range e.Items {
			ps = union(ps, a.analyze(it, env))
		}
		return ps
	case *ast.RangeExpr, *ast.Unary, *ast.CastAs, *ast.CastableAs, *ast.DirElem,
		*ast.CompElem, *ast.CompAttr, *ast.CompText, *ast.CompComment, *ast.CompPI, *ast.CompDoc:
		// Atomizing and copying consumers: every operand is used in full,
		// and the result holds no node of the context document.
		ast.Children(e, func(c ast.Expr) { a.markSubtree(a.analyze(c, env)) })
		return nil
	case *ast.DirComment, *ast.DirPI:
		return nil
	case *ast.Binary:
		return a.binary(e, env)
	case *ast.PathExpr:
		return a.path(e, env)
	case *ast.FLWOR:
		return a.flwor(e, env)
	case *ast.Quantified:
		inner := env
		for _, v := range e.Vars {
			inner = inner.withVar(v.Var, a.analyze(v.In, inner))
		}
		a.markShell(a.analyze(e.Satisfy, inner))
		return nil
	case *ast.IfExpr:
		a.markShell(a.analyze(e.Cond, env))
		return union(a.analyze(e.Then, env), a.analyze(e.Else, env))
	case *ast.Typeswitch:
		// Case clauses test sequence types against the operand; name and
		// kind checks need shells, but text()/comment() matches observe
		// nodes that only survive inside subtree regions — retain whole
		// subtrees rather than reasoning per case.
		ops := a.analyze(e.Operand, env)
		a.markSubtree(ops)
		var ps pathset
		for _, c := range e.Cases {
			inner := env
			if c.Var != "" {
				inner = inner.withVar(c.Var, ops)
			}
			ps = union(ps, a.analyze(c.Ret, inner))
		}
		inner := env
		if e.DefaultVar != "" {
			inner = inner.withVar(e.DefaultVar, ops)
		}
		return union(ps, a.analyze(e.Default, inner))
	case *ast.FunctionCall:
		return a.call(e, env)
	case *ast.InstanceOf:
		// Item-type matching inspects kind and name only (no atomization),
		// but text()/comment() tests need those nodes present: subtree
		// unless the test is element/attribute/node/atomic-shaped.
		ps := a.analyze(e.Operand, env)
		if typeNeedsSubtree(e.Type) {
			a.markSubtree(ps)
		} else {
			a.markShell(ps)
		}
		return nil
	case *ast.TreatAs:
		ps := a.analyze(e.Operand, env)
		if typeNeedsSubtree(e.Type) {
			a.markSubtree(ps)
		} else {
			a.markShell(ps)
		}
		return ps
	case *ast.TryCatch:
		ps := a.analyze(e.Try, env)
		inner := env
		if e.CatchVar != "" {
			inner = inner.withVar(e.CatchVar, nil)
		}
		if e.CatchCodeVar != "" {
			inner = inner.withVar(e.CatchCodeVar, nil)
		}
		return union(ps, a.analyze(e.Catch, inner))
	}
	bail("unsupported expression %T", e)
	return nil
}

// typeNeedsSubtree reports whether matching a sequence type can observe
// nodes that shell retention drops (text, comments, PIs, typed content).
func typeNeedsSubtree(t xdm.SequenceType) bool {
	switch t.Kind {
	case xdm.TestAnyItem, xdm.TestAnyNode, xdm.TestElement, xdm.TestAttribute,
		xdm.TestDocument, xdm.TestEmptySequence, xdm.TestAtomic:
		// Kind/name inspection only; atomic tests fail on nodes without
		// atomizing them.
		return false
	}
	return true
}

func (a *analyzer) binary(e *ast.Binary, env environment) pathset {
	l := a.analyze(e.L, env)
	r := a.analyze(e.R, env)
	switch e.Kind {
	case ast.OpOr, ast.OpAnd:
		a.markShell(l)
		a.markShell(r)
		return nil
	case ast.OpNodeIs, ast.OpNodeBefore, ast.OpNodeAfter:
		a.markShell(l)
		a.markShell(r)
		return nil
	case ast.OpUnion, ast.OpIntersect, ast.OpExcept:
		// Identity-based set operations; retention follows from how the
		// combined result is used downstream, but the operands must exist
		// as shells for the identity comparison itself.
		a.markShell(l)
		a.markShell(r)
		return union(l, r)
	case ast.OpGeneralComp, ast.OpValueComp, ast.OpArith, ast.OpConcat:
		a.markSubtree(l)
		a.markSubtree(r)
		return nil
	}
	bail("unsupported binary operator %v", e.Kind)
	return nil
}

func (a *analyzer) flwor(e *ast.FLWOR, env environment) pathset {
	inner := env
	for _, c := range e.Clauses {
		switch c := c.(type) {
		case ast.ForClause:
			ps := a.analyze(c.In, inner)
			inner = inner.withVar(c.Var, ps)
			if c.PosVar != "" {
				inner = inner.withVar(c.PosVar, nil)
			}
		case ast.LetClause:
			inner = inner.withVar(c.Var, a.analyze(c.Val, inner))
		default:
			bail("unsupported FLWOR clause %T", c)
		}
	}
	if e.Where != nil {
		a.markShell(a.analyze(e.Where, inner))
	}
	for _, o := range e.OrderBy {
		a.markSubtree(a.analyze(o.Key, inner))
	}
	return a.analyze(e.Return, inner)
}

// call is the one transfer function over a built-in's row (funclib.Func):
// arguments the row lets flow into the result are returned, the others are
// retained as the row says the call observes them.
func (a *analyzer) call(e *ast.FunctionCall, env environment) pathset {
	if a.funcs[e.Name] {
		// User function: bodies run without the document focus (relative
		// paths in them raise XPDY0002 regardless of projection), so the
		// only document nodes they can observe arrive through arguments —
		// retained whole. Downward navigation from the result then stays
		// inside retained regions.
		for _, arg := range e.Args {
			a.markSubtree(a.analyze(arg, env))
		}
		return nil
	}
	// A built-in at an arity it does not take raises XPST0017 once its
	// arguments are evaluated; analysing it as the name's first row retains
	// no less than that needs.
	f, _ := funclib.Lookup(e.Name, len(e.Args))
	args := make([]pathset, len(e.Args))
	for i, arg := range e.Args {
		args[i] = a.analyze(arg, env)
	}
	if f == nil {
		bail("unknown function %s", e.Name)
	}
	var out pathset
	for i, ps := range args {
		flows := !f.NodeFree && f.Flows(i, len(args))
		if flows {
			// The items themselves come back (fn:reverse, the cardinality
			// assertions, fn:trace's last argument): what is retained of
			// them is the business of whoever consumes the result.
			out = union(out, ps)
		}
		switch {
		case f.Shell:
			// Existence, cardinality, and node names: shells carry all of it.
			a.markShell(ps)
		case !flows || f.Emits:
			// Atomized, compared or — fn:trace, every argument — serialized
			// to the host: consumed in full. fn:doc's result is of another
			// tree; navigation from it never touches the context document.
			a.markSubtree(ps)
		}
	}
	return out
}

func (a *analyzer) path(p *ast.PathExpr, env environment) pathset {
	var ps pathset
	// pending carries an elided descendant-or-self::node() into the next
	// named step, folding `//` into that step's Desc flag.
	pending := false
	switch p.Root {
	case ast.RootNone:
		ps = env.ctx
	case ast.RootSlash:
		ps = rootSet()
	case ast.RootSlashSlash:
		ps = rootSet()
		pending = true
	}
	for i, st := range p.Steps {
		last := i == len(p.Steps)-1
		ps, pending = a.step(st, ps, pending, last, env)
	}
	if pending {
		// A trailing descendant-or-self::node(): every node below.
		a.markSubtree(ps)
		ps = coveredSet()
	}
	return ps
}

func (a *analyzer) step(st ast.Step, ps pathset, pending, last bool, env environment) (pathset, bool) {
	if st.Primary != nil {
		if pending {
			bail("filter step after //")
		}
		out := a.analyze(st.Primary, env)
		return a.preds(st.Preds, out, env), false
	}
	if st.Test.Kind != nil {
		// Kind tests: descendant-or-self::node() mid-path is the `//`
		// separator and just sets the pending flag; every other kind test
		// observes text/comment/PI children, which only subtree retention
		// keeps.
		if st.IsDescendantOrSelfNode() && !last {
			return ps, true
		}
		if st.Axis == ast.AxisSelf && st.Test.Kind.Kind == xdm.TestAnyNode && len(st.Preds) == 0 {
			return ps, pending
		}
		a.markSubtree(ps)
		return a.preds(st.Preds, coveredSet(), env), false
	}
	name := st.Test.Name
	var out pathset
	switch st.Axis {
	case ast.AxisChild:
		out = extend(ps, xmltree.ProjStep{Name: name, Desc: pending})
		a.markShell(out)
	case ast.AxisDescendant:
		out = extend(ps, xmltree.ProjStep{Name: name, Desc: true})
		a.markShell(out)
	case ast.AxisDescendantOrSelf:
		out = extend(ps, xmltree.ProjStep{Name: name, Desc: true})
		a.markShell(out)
		if !pending {
			// The self part: context nodes themselves when the name
			// matches; keep the whole context pathset as a superset.
			a.markShell(ps)
			out = union(out, ps)
		}
	case ast.AxisSelf:
		if pending {
			out = extend(ps, xmltree.ProjStep{Name: name, Desc: true})
			a.markShell(out)
		} else {
			out = ps
			a.markShell(out)
		}
	case ast.AxisAttribute:
		owners := ps
		if pending {
			owners = extend(ps, xmltree.ProjStep{Name: "*", Desc: true})
			a.markShell(owners)
		}
		// The reader's attribute filter is an exact name or "*"; prefix
		// wildcards widen to "*".
		if _, plain := st.PlainName(); !plain {
			name = "*"
		}
		a.markAttr(owners, name)
		return a.preds(st.Preds, coveredSet(), env), false
	default:
		// Upward and sideways axes escape any root-anchored path set; the
		// pre-scan rejects these before we get here.
		bail("axis %v is not projectable", st.Axis)
	}
	return a.preds(st.Preds, out, env), false
}

func (a *analyzer) preds(preds []ast.Expr, ps pathset, env environment) pathset {
	inner := env.withCtx(ps)
	for _, pr := range preds {
		// Predicate truth is EBV or positional; either way the predicate's
		// own value needs at most existence. Whatever it navigates or
		// atomizes internally is marked by its own analysis. Positional
		// predicates stay exact because step retention is a name-based
		// superset: every element the step can match is retained.
		a.markShell(a.analyze(pr, inner))
	}
	return ps
}

// prescan rejects constructs that navigate outside any computable
// projection: upward/sideways axes and fn:root (which climbs to the document
// root from anywhere — unboundable). It runs over function bodies (which the
// main analysis never visits) and the main body alike, and reports the first
// offender in source order: a path is scanned step by step, each step's axis
// before its predicates.
func (a *analyzer) prescan(e ast.Expr) {
	ast.Walk(e, func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.PathExpr:
			for _, st := range e.Steps {
				if st.Primary != nil {
					a.prescan(st.Primary)
				} else {
					switch st.Axis {
					case ast.AxisChild, ast.AxisDescendant, ast.AxisAttribute,
						ast.AxisSelf, ast.AxisDescendantOrSelf:
					default:
						bail("axis %v is not projectable", st.Axis)
					}
				}
				for _, pr := range st.Preds {
					a.prescan(pr)
				}
			}
			return false
		case *ast.FunctionCall:
			if f, _ := funclib.Lookup(e.Name, len(e.Args)); f != nil && f.Escapes {
				bail("fn:%s escapes the projection", f.Name)
			}
		}
		return true
	})
}
