package optimizer

// Access-path planning: a rewrite pass over path expressions that decides,
// per step, how the runtime should produce the step's node set — an index
// scan or the default tree walk — and records the decision (with its
// rationale) on the step for EXPLAIN.
//
// The pass also performs the one structural rewrite that unlocks the big
// win: a `descendant-or-self::node()` step (the expansion of `//`) followed
// by a `child::name` step collapses into a single `descendant::name` step,
// which the element-name index answers in O(result) instead of O(tree).
// The fusion is semantics-preserving only under tight conditions:
//
//   - the descendant-or-self step must carry no predicates, and
//   - the child step's predicates must be empty, consist of exactly one
//     `[@attr = 'literal']` predicate (ast.AttrEqLiteral), or (shapes on)
//     consist of exactly one predicate the shape analysis proves
//     non-positional.
//
// Positional predicates block fusion because `a//b[2]` counts positions per
// parent while `descendant::b[2]` counts globally — a divergence the
// differential oracle would (and did, at design time) catch. The shape
// widening admits exactly the predicates where that hazard is absent: the
// predicate's value can never be a singleton number (so predicateHolds
// takes the effective-boolean branch on both plans) and the predicate never
// reads the focus position via fn:position or fn:last. The context ITEM is
// the candidate node itself under either grouping, so everything else the
// predicate can observe is identical.
//
// Decisions here are advisory toward an equivalent plan: the interpreter
// falls back to the tree walk whenever the context tree has no usable index,
// so planning never changes semantics, only cost. For the same reason a
// folded `[@attr = key]` is an annotation, not a rewrite: the access path
// records the condition and the predicate stays where the parser put it, so
// a reader that has never heard of access paths (the printer, shape
// inference, the projection and streaming analyses) still sees the whole
// step. Only the interpreter, which executes the probe, skips it — and goes
// back to it whenever the key's value is not one string (see keyRefusal for
// what the planner checks and interp's stepPlan.eval for the run-time guard).

import (
	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/funclib"
	"lopsided/internal/xquery/shapes"
)

// planPath assigns access paths to the steps of p, fusing //-pairs first.
// Called for every rewritten PathExpr at O1+ unless access paths are
// disabled.
func (o *optimizer) planPath(p *ast.PathExpr) {
	// Leading-`//` fusion: RootSlashSlash expands to "all nodes of the
	// document, then step 1". When step 1 is a fusable child::name, the pair
	// is exactly descendant::name from the document root.
	if p.Root == ast.RootSlashSlash && len(p.Steps) > 0 {
		if fused, ok := o.fuseChild(p.Steps[0]); ok {
			p.Root = ast.RootSlash
			p.Steps[0] = fused
		}
	}
	// Interior `//` fusion: descendant-or-self::node() + fusable child::name.
	steps := p.Steps[:0]
	for i := 0; i < len(p.Steps); i++ {
		s := p.Steps[i]
		if s.IsDescendantOrSelfNode() && i+1 < len(p.Steps) {
			if fused, ok := o.fuseChild(p.Steps[i+1]); ok {
				steps = append(steps, fused)
				i++
				continue
			}
		}
		steps = append(steps, s)
	}
	p.Steps = steps
	for i := range p.Steps {
		if p.Steps[i].Access == nil {
			o.planStep(&p.Steps[i])
		}
	}
}

// fuseChild turns a fusable child::name step into the descendant::name step
// that replaces a (descendant-or-self::node(), child::name) pair, folding a
// single [@attr = 'v'] predicate into the probe when present. A key that is
// not a literal is left to the unfused child step (planStep), which groups
// per parent as the predicate was written.
func (o *optimizer) fuseChild(s ast.Step) (ast.Step, bool) {
	name, ok := s.PlainName()
	if !ok || s.Axis != ast.AxisChild || len(s.Preds) > 1 {
		return s, false
	}
	ap := &ast.AccessPath{Kind: ast.AccessIndexScan, Fused: true}
	widened := ""
	if len(s.Preds) == 1 {
		if _, _, literal := ast.AttrEqLiteral(s.Preds[0]); literal {
			// Nothing left for the grouping to change.
			o.foldAttrPred(s.Preds, ap)
		} else if o.shapeNonPositional(s.Preds[0]) {
			// Applied after the index probe or the walk fallback; only the
			// grouping changed, which the shape proof shows the predicate
			// cannot observe.
			widened = ", predicate shape-proven non-positional"
			o.stats.ShapeWidenedPredicates++
		} else {
			return s, false
		}
	}
	ap.Reason = "fused // into descendant::" + name + widened
	s.Axis = ast.AxisDescendant
	s.Access = ap
	o.stats.IndexScans++
	return s, true
}

// shapeNonPositional reports whether the shape analysis proves a predicate
// can never act positionally AND can never raise: its value holds no
// numeric atomic (so a singleton-number positional test is impossible), it
// never calls fn:position or fn:last, and evaluation is total. The totality
// leg matters because fusion reorders predicate evaluation (per-parent
// groups become one global document-order scan); a predicate that raises
// different codes on different nodes would surface a different first error
// across plans. A total predicate can at worst make the effective-boolean
// test raise FORG0006 — the same code under either order. A path made only
// of predicate-free axis steps gets the same guarantee structurally: from
// the node focus a fused step supplies, axis steps produce only nodes and
// raise nothing, and an all-node value is EBV-safe. Disabled configurations
// refuse every predicate, reproducing the pre-shapes plans.
func (o *optimizer) shapeNonPositional(pred ast.Expr) bool {
	if o.opts.DisableShapes {
		return false
	}
	sh := shapes.InferExpr(pred, shapes.Scope{
		InScope:    func(name string) bool { return o.scope[name] > 0 },
		IsUserFunc: func(name string) bool { return o.userFuncs[name] },
		HasFocus:   true,
	})
	if sh.Atomic&xdm.KNum != 0 {
		return false
	}
	if !sh.Total && !pureAxisPath(pred) {
		return false
	}
	return !usesFocusPosition(pred)
}

// pureAxisPath recognizes a path consisting solely of predicate-free,
// primary-free axis steps — total whenever the context item is a node,
// which fuseChild's candidate steps guarantee.
func pureAxisPath(e ast.Expr) bool {
	p, ok := e.(*ast.PathExpr)
	if !ok {
		return false
	}
	for _, s := range p.Steps {
		if s.Primary != nil || len(s.Preds) != 0 {
			return false
		}
	}
	return true
}

// usesFocusPosition reports whether e contains a call to a built-in that
// reads the context position or size (fn:position, fn:last) anywhere —
// including inside nested predicates, where the call is harmless (it sees its
// own focus), and at an arity or under a user declaration that would not
// reach the built-in; the coarse answer only costs a fusion.
func usesFocusPosition(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if call, ok := x.(*ast.FunctionCall); ok {
			if f, _ := funclib.Lookup(call.Name, len(call.Args)); f != nil && f.ReadsPosition {
				found = true
			}
		}
		return !found
	})
	return found
}

// foldAttrPred records on ap that the probe answers a step's first
// predicate, when that predicate is [@attr = key] and the key passes
// keyRefusal (EXPLAIN derives its "folded […]" clause from the record). A
// predicate of the right form with a refused key returns the reason.
func (o *optimizer) foldAttrPred(preds []ast.Expr, ap *ast.AccessPath) (ok bool, refusal string) {
	if len(preds) == 0 {
		return false, ""
	}
	attr, key, isAttrEq := ast.AttrEq(preds[0])
	if !isAttrEq {
		return false, ""
	}
	if refusal = o.keyRefusal(key); refusal != "" {
		return false, "[@" + attr + " = …] not folded: " + refusal
	}
	ap.AttrName, ap.AttrKey = attr, key
	o.stats.FoldedPredicates++
	return true, ""
}

// keyRefusal says why the key of an [@attr = key] predicate may not be
// evaluated once per step invocation in place of once per candidate, or ""
// when it may. Two properties are required:
//
//   - focus-free: at the key's own level — everywhere it shares the
//     candidate's focus, which excludes the later steps and the predicates
//     of a path inside it — there is no context item expression, no path
//     that starts at the focus (a relative axis step, or a `/`-rooted one),
//     and no built-in whose row says ReadsItem or ReadsPosition;
//   - effect-free: nowhere in the key is there anything the host can
//     count — a built-in that Emits (fn:trace), a user-declared function or
//     a FLWOR (each call, each clause binding is a tracer event). A name is
//     looked up in o.userFuncs first, as the compiler does, so a declared
//     function that shadows a built-in's name is refused, not read off the
//     built-in's row.
//
// Nothing is asked of the key's type, count or totality: those are guarded
// at run time, where an untyped function parameter has a value. Only a
// numeric literal, which fails that guard every time, is refused here.
func (o *optimizer) keyRefusal(key ast.Expr) string {
	switch key.(type) {
	case *ast.StringLit:
		return ""
	case *ast.IntLit, *ast.DecimalLit, *ast.DoubleLit:
		return "key is a number, which compares as a double"
	}
	refusal := ""
	ast.Walk(key, func(x ast.Expr) bool {
		switch n := x.(type) {
		case *ast.FLWOR:
			refusal = "key has a FLWOR, whose bindings the tracer counts"
		case *ast.FunctionCall:
			f, known := funclib.Lookup(n.Name, len(n.Args))
			switch {
			case o.userFuncs[n.Name]:
				refusal = "key calls user function " + n.Name
			case !known:
				refusal = "key calls unknown function " + n.Name
			case f.Emits:
				refusal = "key calls " + n.Name + ", which emits"
			}
		}
		return refusal == ""
	})
	if refusal == "" {
		refusal = focusRead(key)
	}
	return refusal
}

// focusRead names the first place e reads the focus it is evaluated under,
// or returns "".
func focusRead(e ast.Expr) string {
	switch n := e.(type) {
	case *ast.ContextItem:
		return "key reads the context item"
	case *ast.PathExpr:
		switch {
		case n.Root != ast.RootNone:
			return "key has a path rooted at the context item's document"
		case len(n.Steps) == 0:
			return ""
		case n.Steps[0].Primary == nil:
			return "key has a path relative to the context item"
		}
		// Later steps and every predicate run under a focus of their own.
		return focusRead(n.Steps[0].Primary)
	case *ast.FunctionCall:
		if f, _ := funclib.Lookup(n.Name, len(n.Args)); f != nil && (f.ReadsItem || f.ReadsPosition) {
			return "key calls " + n.Name + "(), which reads the focus"
		}
	}
	found := ""
	ast.Children(e, func(c ast.Expr) {
		if found == "" {
			found = focusRead(c)
		}
	})
	return found
}

// planStep records the access-path decision for one unfused step.
func (o *optimizer) planStep(s *ast.Step) {
	if s.Primary != nil {
		return // filter step: no axis to access
	}
	name, ok := s.PlainName()
	if !ok {
		s.Access = &ast.AccessPath{Kind: ast.AccessTreeWalk, Reason: "wildcard or kind test"}
		o.stats.TreeWalks++
		return
	}
	ap := &ast.AccessPath{Kind: ast.AccessIndexScan}
	switch s.Axis {
	case ast.AxisDescendant:
		ap.Reason = "descendant::" + name + " name step"
		if folded, refusal := o.foldAttrPred(s.Preds, ap); folded {
			ap.Reason = "descendant name step"
		} else if refusal != "" {
			ap.Reason += ", " + refusal
		}
		o.stats.IndexScans++
	case ast.AxisChild:
		folded, refusal := o.foldAttrPred(s.Preds, ap)
		if folded {
			ap.Reason = "child name step"
			o.stats.IndexScans++
			break
		}
		// Reading the child list is the cheapest answer there is; only
		// a folded attribute predicate gives the index something to
		// narrow.
		if refusal == "" {
			refusal = "no attribute predicate to probe"
		}
		ap.Kind, ap.Reason = ast.AccessTreeWalk, "child::"+name+", "+refusal
		o.stats.TreeWalks++
	default:
		ap.Kind, ap.Reason = ast.AccessTreeWalk, s.Axis.String()+" axis not indexed"
		o.stats.TreeWalks++
	}
	s.Access = ap
}
