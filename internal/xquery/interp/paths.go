package interp

import (
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xmltree/index"
	"lopsided/internal/xquery/ast"
)

// Path expressions compile into pathPlans: the axis function and node test
// of every step are resolved to direct funcs at compile time, and the
// primaries/predicates are closure-compiled. The runtime walk mutates the
// context focus in place (saving and restoring around each use) instead of
// copying the whole evaluation context per item.

// predPlan is one compiled predicate.
type predPlan struct {
	expr compiledExpr
	pos  ast.Pos
}

// accessPlan is the compiled form of the optimizer's access-path decision
// for an axis step. The probe is advisory: when the context node's tree has
// no usable index the step falls back to the axis walk, producing identical
// results (the optimizer only plans shapes where that equivalence holds).
type accessPlan struct {
	// name is the element name the step selects; desc distinguishes the
	// descendant probe from the child probe.
	name string
	desc bool
	// attrName and key carry the step's first predicate when the optimizer
	// folded it ([@attr = key]; key nil when it folded nothing). The key is
	// evaluated once per step invocation, and when its value is one string
	// the probe answers the predicate; the walk fallback applies it
	// existentially over every same-named attribute (duplicate-attribute
	// trees make first-match wrong). compileStep therefore leaves that
	// predicate out of the step's compiled preds, and keeps the whole list
	// as stepPlan.unfolded for the invocations whose key is anything else.
	attrName string
	key      compiledExpr
}

// keyVerdict is what a folded key's value lets the step do.
type keyVerdict int

const (
	// keyUnfold: evaluate the step as written, first predicate included.
	keyUnfold keyVerdict = iota
	// keyNone: the key is the empty sequence, which no candidate equals.
	keyNone
	// keyProbe: the key is one string, which the probe can answer.
	keyProbe
)

// keyValue evaluates the folded key under the step's focus and guards what
// the probe can stand in for. @attr = key is exact string equality precisely
// when the key is one xs:string, xs:untypedAtomic or node (a node atomizes to
// untypedAtomic): keyProbe, with the string. Every outcome but that and the
// empty key — a number compares as a double and matches "03", a boolean casts
// the attribute, a longer sequence is existential, an error belongs to the
// first candidate if there is one — is keyUnfold. The exception is a tripped
// budget, which is the evaluation's error wherever it surfaces.
func (a *accessPlan) keyValue(c *evalCtx) (string, keyVerdict, error) {
	saved := c.focus
	v, err := a.key(c)
	switch {
	case err != nil:
		c.focus = saved // as try/catch does: a failing subexpression may leave its own
		if c.bud != nil && c.bud.tripped != nil {
			return "", keyUnfold, err
		}
		return "", keyUnfold, nil
	case len(v) == 0:
		return "", keyNone, nil
	case len(v) > 1:
		return "", keyUnfold, nil
	}
	switch it := v[0].(type) {
	case xdm.String:
		return string(it), keyProbe, nil
	case xdm.Untyped:
		return string(it), keyProbe, nil
	case xdm.NodeItem:
		return it.Node.StringValue(), keyProbe, nil
	}
	return "", keyUnfold, nil
}

// probe tries to serve the step's node set from the context tree's index:
// the elements named a.name that carry attribute a.attrName = val when keyed,
// every descendant of that name otherwise. served is false when the index
// has nothing to narrow (an unkeyed child step) or is not available (unfrozen
// tree or foreign node), and the caller must walk.
func (a *accessPlan) probe(ctx *xmltree.Node, keyed bool, val string) (nodes []*xmltree.Node, served bool) {
	if !a.desc && !keyed {
		return nil, false
	}
	ix, ok := index.For(ctx.Root())
	if !ok {
		return nil, false
	}
	switch {
	case !keyed:
		return ix.Descendants(ctx, a.name)
	case a.desc:
		return ix.DescendantsAttrEq(ctx, a.name, a.attrName, val)
	}
	return ix.ChildrenAttrEq(ctx, a.name, a.attrName, val)
}

// stepPlan is one compiled path step: an axis step (axisFunc+test) or a
// filter step (primary non-nil), each with predicates.
type stepPlan struct {
	axisFunc func(*xmltree.Node) []*xmltree.Node
	test     func(*xmltree.Node) bool
	access   *accessPlan
	primary  compiledExpr
	preds    []predPlan
	// unfolded is every predicate of a step whose first one the access plan
	// folded (preds is then its tail); nil otherwise.
	unfolded []predPlan
	pos      ast.Pos
}

type pathPlan struct {
	root  ast.PathRoot
	steps []stepPlan
	pos   ast.Pos
}

func (cp *compiler) compilePath(n *ast.PathExpr) compiledExpr {
	p := &pathPlan{root: n.Root, pos: n.Pos()}
	for _, st := range n.Steps {
		p.steps = append(p.steps, cp.compileStep(st))
	}
	// A single filter step with no rooting is a standalone filter
	// expression, not a path: no homogeneity requirement, no document-order
	// sorting.
	if n.Root == ast.RootNone && len(n.Steps) == 1 && n.Steps[0].Primary != nil {
		sp := &p.steps[0]
		return sp.eval
	}
	return p.eval
}

func (cp *compiler) compileStep(st ast.Step) stepPlan {
	sp := stepPlan{pos: st.P}
	if st.Primary != nil {
		sp.primary = cp.compile(st.Primary)
	} else {
		sp.axisFunc = axisFunc(st.Axis)
		sp.test = makeTest(st.Test, st.Axis)
		sp.access = cp.compileAccess(st)
	}
	// The access plan applies a folded first predicate, and its note reports
	// it (the key's own notes follow that one); the whole list stays beside
	// the rest of it for the invocations whose key fails the guard.
	folded := sp.access != nil && sp.access.key != nil
	mark := len(cp.prog.notes)
	for i, pr := range st.Preds {
		sp.preds = append(sp.preds, predPlan{expr: cp.compile(pr), pos: pr.Pos()})
		if folded && i == 0 {
			cp.prog.notes = cp.prog.notes[:mark]
		}
	}
	if folded {
		sp.unfolded, sp.preds = sp.preds, sp.preds[1:]
	}
	return sp
}

// compileAccess lowers the optimizer's access-path decision onto the step
// and records it as a plan note for EXPLAIN. Tree walks compile to a nil
// accessPlan (the default dispatch); unplanned steps (O0, or paths built
// outside the optimizer) stay silent tree walks.
func (cp *compiler) compileAccess(st ast.Step) *accessPlan {
	ap := st.Access
	if ap == nil {
		return nil
	}
	suffix := ""
	lit, literal := ap.AttrKey.(*ast.StringLit)
	switch {
	case literal:
		suffix = " (" + ap.Reason + ", folded [@" + ap.AttrName + " = '" + lit.Value + "'])"
	case ap.AttrKey != nil:
		suffix = " (" + ap.Reason + ", folded [@" + ap.AttrName + " = " + ast.Print(ap.AttrKey) + "], key evaluated once per step)"
	case ap.Reason != "":
		suffix = " (" + ap.Reason + ")"
	}
	cp.note(st.P, "access path %s %s::%s%s", ap.Kind, st.Axis, st.Test.Name, suffix)
	if ap.Kind == ast.AccessTreeWalk {
		return nil
	}
	out := &accessPlan{name: st.Test.Name, desc: st.Axis == ast.AxisDescendant, attrName: ap.AttrName}
	if ap.AttrKey != nil {
		// compileBody: the key is an operand of the folded predicate, not an
		// expression of its own, and a literal one costs no step.
		out.key = cp.compileBody(ap.AttrKey)
	}
	return out
}

func axisFunc(axis ast.Axis) func(*xmltree.Node) []*xmltree.Node {
	switch axis {
	case ast.AxisChild:
		// Read the child list in place: stepPlan.eval only iterates the
		// returned slice, so xmltree.ChildAxis's defensive copy is wasted.
		return func(n *xmltree.Node) []*xmltree.Node {
			if n.Kind != xmltree.ElementNode && n.Kind != xmltree.DocumentNode {
				return nil
			}
			return n.Children()
		}
	case ast.AxisDescendant:
		return xmltree.DescendantAxis
	case ast.AxisAttribute:
		return func(n *xmltree.Node) []*xmltree.Node {
			if n.Kind != xmltree.ElementNode {
				return nil
			}
			return n.Attrs()
		}
	case ast.AxisSelf:
		return xmltree.SelfAxis
	case ast.AxisDescendantOrSelf:
		return xmltree.DescendantOrSelfAxis
	case ast.AxisFollowingSibling:
		return xmltree.FollowingSiblingAxis
	case ast.AxisFollowing:
		return xmltree.FollowingAxis
	case ast.AxisParent:
		return xmltree.ParentAxis
	case ast.AxisAncestor:
		return xmltree.AncestorAxis
	case ast.AxisPrecedingSibling:
		return xmltree.PrecedingSiblingAxis
	case ast.AxisPreceding:
		return xmltree.PrecedingAxis
	case ast.AxisAncestorOrSelf:
		return xmltree.AncestorOrSelfAxis
	}
	return func(*xmltree.Node) []*xmltree.Node { return nil }
}

// makeTest compiles a node test into a direct matcher. Name tests select
// the axis's principal node kind: attributes on the attribute axis,
// elements elsewhere.
func makeTest(test ast.NodeTest, axis ast.Axis) func(*xmltree.Node) bool {
	if test.Kind != nil {
		kind := test.Kind
		return func(n *xmltree.Node) bool { return kind.MatchesItem(xdm.NewNode(n)) }
	}
	principal := xmltree.ElementNode
	if axis == ast.AxisAttribute {
		principal = xmltree.AttributeNode
	}
	name := test.Name
	switch {
	case name == "*":
		return func(n *xmltree.Node) bool { return n.Kind == principal }
	case strings.HasSuffix(name, ":*"):
		prefix := strings.TrimSuffix(name, ":*")
		return func(n *xmltree.Node) bool { return n.Kind == principal && n.Prefix() == prefix }
	case strings.HasPrefix(name, "*:"):
		local := strings.TrimPrefix(name, "*:")
		return func(n *xmltree.Node) bool { return n.Kind == principal && n.LocalName() == local }
	}
	return func(n *xmltree.Node) bool { return n.Kind == principal && n.Name == name }
}

// eval evaluates the compiled path: optional rooting, then steps, each
// applied to every item of the previous step's result with a fresh focus.
func (p *pathPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	var current xdm.Sequence
	switch p.root {
	case ast.RootNone:
		// First step runs against the current focus (axis steps) or no
		// input at all (filter steps such as variables and literals).
		return p.evalSteps(c, nil)
	case ast.RootSlash, ast.RootSlashSlash:
		it, err := c.FocusItem()
		if err != nil {
			return nil, errAt(err, p.pos)
		}
		node, ok := xdm.IsNode(it)
		if !ok {
			return nil, &Error{Code: "XPDY0050", Pos: p.pos, Msg: "'/' with a non-node context item"}
		}
		root := node.Root()
		current = xdm.Singleton(xdm.NewNode(root))
		if p.root == ast.RootSlashSlash {
			// Leading // is /descendant-or-self::node()/ before the steps.
			current = xdm.FromNodes(xmltree.DescendantOrSelfAxis(root))
		}
		if len(p.steps) == 0 {
			return current, nil
		}
		return p.evalSteps(c, current)
	}
	return current, nil
}

// evalSteps applies each step in order. input nil means "use current focus
// for axis steps, nothing for filter steps" (the first step of a relative
// path).
func (p *pathPlan) evalSteps(c *evalCtx, input xdm.Sequence) (xdm.Sequence, error) {
	current := input
	saved := c.focus
	for si := range p.steps {
		sp := &p.steps[si]
		var result xdm.Sequence
		if current == nil {
			// First step of a relative path: axis steps need the enclosing
			// focus, filter primaries are focus-free.
			if sp.primary == nil && !c.focus.set {
				return nil, &Error{Code: "XPDY0002", Pos: sp.pos,
					Msg: "axis step with no context item"}
			}
			var err error
			result, err = sp.eval(c)
			if err != nil {
				return nil, err
			}
		} else {
			for pos, it := range current {
				c.focus = focus{item: it, pos: pos + 1, size: len(current), set: true}
				part, err := sp.eval(c)
				if err != nil {
					c.focus = saved
					return nil, err
				}
				// Appending (not Concat) keeps one growing backing array per
				// step instead of re-copying the accumulator per context item.
				result = append(result, part...)
			}
			c.focus = saved
		}
		// Normalize node results into document order; mixed node/atomic
		// results are illegal; pure atomic results are allowed only in the
		// final step.
		hasNode, hasAtomic := classify(result)
		switch {
		case hasNode && hasAtomic:
			return nil, &Error{Code: "XPTY0018", Pos: sp.pos,
				Msg: "path step produced both nodes and atomic values"}
		case hasNode:
			sorted, err := xdm.SortDoc(result)
			if err != nil {
				return nil, errAt(err, sp.pos)
			}
			result = sorted
		case hasAtomic && si < len(p.steps)-1:
			return nil, &Error{Code: "XPTY0019", Pos: p.steps[si+1].pos,
				Msg: "path step applied to atomic values"}
		}
		current = result
	}
	return current, nil
}

func classify(s xdm.Sequence) (hasNode, hasAtomic bool) {
	for _, it := range s {
		if _, ok := xdm.IsNode(it); ok {
			hasNode = true
		} else {
			hasAtomic = true
		}
	}
	return hasNode, hasAtomic
}

// eval evaluates one step against the current focus.
func (sp *stepPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	if sp.primary != nil {
		prim, err := sp.primary(c)
		if err != nil {
			return nil, err
		}
		return applyPredicates(c, sp.preds, prim)
	}
	it, err := c.FocusItem()
	if err != nil {
		return nil, errAt(err, sp.pos)
	}
	node, ok := xdm.IsNode(it)
	if !ok {
		return nil, &Error{Code: "XPTY0019", Pos: sp.pos,
			Msg: "axis step applied to atomic value " + it.TypeName()}
	}
	preds, a := sp.preds, sp.access
	keyed, val := false, ""
	if a != nil && a.key != nil {
		var verdict keyVerdict
		if val, verdict, err = a.keyValue(c); err != nil || verdict == keyNone {
			return nil, err
		}
		if keyed = verdict == keyProbe; !keyed {
			preds = sp.unfolded
		}
	}
	if a != nil {
		if nodes, served := a.probe(node, keyed, val); served {
			// Index lists are in document order (= forward axis order), and
			// the name (and any folded attribute) condition is already
			// satisfied; remaining predicates still apply.
			out := make(xdm.Sequence, 0, len(nodes))
			for _, cand := range nodes {
				out = append(out, xdm.NewNode(cand))
			}
			return applyPredicates(c, preds, out)
		}
	}
	nodes := sp.axisFunc(node)
	// Predicates see positions in axis order (reverse axes count backward
	// from the context node), which is already the order of `out`.
	out := make(xdm.Sequence, 0, len(nodes))
	for _, cand := range nodes {
		if sp.test(cand) {
			if keyed && !index.AttrAnyEq(cand, a.attrName, val) {
				continue // folded [@attr = key] applies on the walk fallback too
			}
			out = append(out, xdm.NewNode(cand))
		}
	}
	return applyPredicates(c, preds, out)
}

// applyPredicates filters seq through each predicate in turn. A predicate
// evaluating to a singleton numeric value selects by position; anything
// else filters by effective boolean value.
func applyPredicates(c *evalCtx, preds []predPlan, seq xdm.Sequence) (xdm.Sequence, error) {
	if len(preds) == 0 {
		return seq, nil
	}
	saved := c.focus
	for pi := range preds {
		pred := &preds[pi]
		var kept xdm.Sequence
		size := len(seq)
		for i, it := range seq {
			pos := i + 1
			c.focus = focus{item: it, pos: pos, size: size, set: true}
			pv, err := pred.expr(c)
			if err != nil {
				c.focus = saved
				return nil, err
			}
			keep, err := predicateHolds(pv, pos)
			if err != nil {
				c.focus = saved
				return nil, errAt(err, pred.pos)
			}
			if keep {
				kept = append(kept, it)
			}
		}
		seq = kept
	}
	c.focus = saved
	return seq, nil
}

func predicateHolds(pv xdm.Sequence, pos int) (bool, error) {
	if len(pv) == 1 && xdm.IsNumeric(pv[0]) {
		return xdm.NumberOf(pv[0]) == float64(pos), nil
	}
	return xdm.EffectiveBool(pv)
}
