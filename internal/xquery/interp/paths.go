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
	// subject and key carry the step's first predicate when the optimizer
	// folded it ([@attr = key] or [child = key]; key nil when it folded
	// nothing). The key is evaluated once per step invocation, and when its
	// value is one string the probe answers the predicate; the walk fallback
	// applies it existentially over every attribute or child the subject
	// names (duplicate-attribute trees and repeated children make
	// first-match wrong). compileStep therefore leaves that predicate out of
	// the step's compiled preds, and keeps the whole list as
	// stepPlan.unfolded for the invocations whose key is anything else.
	subject index.Subject
	key     compiledExpr
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
// the probe can stand in for. subject = key is exact string equality
// precisely when the key is one xs:string, xs:untypedAtomic or node (a node
// atomizes to untypedAtomic, and so does the subject, an attribute or a
// child element): keyProbe, with the string. Every outcome but that and the
// empty key — a number compares as a double and matches "03", a boolean
// casts the subject, a longer sequence is existential, an error belongs to
// the first candidate if there is one — is keyUnfold. The exception is a
// tripped budget, which is the evaluation's error wherever it surfaces.
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

// probe tries to serve the step's node set from the context tree's index and
// append it to dst: the elements named a.name that carry a.subject = val
// when keyed, every descendant of that name otherwise. The index hands out
// its own read-only lists, scoped to ctx, and only the survivors are
// appended. Index lists are in document order (= forward axis
// order), and the name (and any folded key) condition is satisfied on
// the way, so every node appended reaches the predicates. served is false
// when the index has nothing to narrow (an unkeyed child step) or is not
// available (unfrozen tree or foreign node), and the caller must walk.
func (a *accessPlan) probe(dst xdm.Sequence, ctx *xmltree.Node, keyed bool, val string) (out xdm.Sequence, served bool) {
	if !a.desc && !keyed {
		return dst, false
	}
	ix, ok := index.For(ctx.Root())
	if !ok {
		return dst, false
	}
	if !keyed {
		nodes, served := ix.Descendants(ctx, a.name)
		if !served {
			return dst, false
		}
		// Every entry survives, so the reservation is exact.
		dst = grow(dst, len(nodes))
		for _, n := range nodes {
			dst = append(dst, xdm.NewNode(n))
		}
		return dst, true
	}
	k, served := ix.KeyEq(ctx, a.name, a.subject, val, !a.desc)
	if !served {
		return dst, false
	}
	for _, n := range k.Nodes {
		if k.Keep(n) {
			dst = append(dst, xdm.NewNode(n))
		}
	}
	return dst, true
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
		return p.steps[0].filter
	}
	return p.eval
}

func (cp *compiler) compileStep(st ast.Step) stepPlan {
	sp := stepPlan{pos: st.P}
	if st.Primary != nil {
		sp.primary = cp.compile(st.Primary)
	} else {
		sp.axisFunc = axisFuncs[st.Axis]
		sp.test = NodeTest(st.Test, st.Axis)
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
	lit, literal := ap.Key.(*ast.StringLit)
	switch {
	case literal:
		suffix = " (" + ap.Reason + ", folded [" + ap.Subject.String() + " = '" + lit.Value + "'])"
	case ap.Key != nil:
		suffix = " (" + ap.Reason + ", folded [" + ap.Subject.String() + " = " + ast.Print(ap.Key) + "], key evaluated once per step)"
	case ap.Reason != "":
		suffix = " (" + ap.Reason + ")"
	}
	cp.note(st.P, "access path %s %s::%s%s", ap.Kind, st.Axis, st.Test.Name, suffix)
	if ap.Kind == ast.AccessTreeWalk {
		return nil
	}
	out := &accessPlan{name: st.Test.Name, desc: st.Axis == ast.AxisDescendant,
		subject: index.Subject{Name: ap.Subject.Name, Content: ap.Subject.Axis == ast.AxisChild}}
	if ap.Key != nil {
		// compileBody: the key is an operand of the folded predicate, not an
		// expression of its own, and a literal one costs no step.
		out.key = cp.compileBody(ap.Key)
	}
	return out
}

// axisFuncs maps every axis the parser produces to its xmltree function.
var axisFuncs = [...]func(*xmltree.Node) []*xmltree.Node{
	ast.AxisChild:            xmltree.ChildAxis,
	ast.AxisDescendant:       xmltree.DescendantAxis,
	ast.AxisAttribute:        xmltree.AttributeAxis,
	ast.AxisSelf:             xmltree.SelfAxis,
	ast.AxisDescendantOrSelf: xmltree.DescendantOrSelfAxis,
	ast.AxisFollowingSibling: xmltree.FollowingSiblingAxis,
	ast.AxisFollowing:        xmltree.FollowingAxis,
	ast.AxisParent:           xmltree.ParentAxis,
	ast.AxisAncestor:         xmltree.AncestorAxis,
	ast.AxisPrecedingSibling: xmltree.PrecedingSiblingAxis,
	ast.AxisPreceding:        xmltree.PrecedingAxis,
	ast.AxisAncestorOrSelf:   xmltree.AncestorOrSelfAxis,
}

// NodeTest compiles a node test into a direct matcher, for every path step
// and every XSLT match pattern. Name tests select the axis's principal node
// kind: attributes on the attribute axis, elements elsewhere; p:* and *:x
// match by xmltree.NameTestMatches.
func NodeTest(test ast.NodeTest, axis ast.Axis) func(*xmltree.Node) bool {
	if test.Kind != nil {
		kind := test.Kind
		return func(n *xmltree.Node) bool { return kind.MatchesItem(xdm.NewNode(n)) }
	}
	principal := xmltree.ElementNode
	if axis == ast.AxisAttribute {
		principal = xmltree.AttributeNode
	}
	switch name := test.Name; {
	case name == "*":
		return func(n *xmltree.Node) bool { return n.Kind == principal }
	case strings.Contains(name, "*"):
		return func(n *xmltree.Node) bool { return n.Kind == principal && xmltree.NameTestMatches(name, n.Name) }
	default:
		return func(n *xmltree.Node) bool { return n.Kind == principal && n.Name == name }
	}
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

// evalSteps applies each step in order. input nil means the path is
// relative: its first step runs once, against the current focus (axis steps)
// or no input at all (filter steps). Every later step runs once per item of
// the previous step's result, even when that result is empty — a step that
// keeps nothing ends the path, it does not hand the next step the outer
// focus. A step appends what it selects for every item onto one result
// (appendTo), which the path owns. The one result it may not own is a head
// filter step's (head): its primary's value, handed through, which the
// document-order sort copies first, and only when it would reorder it.
func (p *pathPlan) evalSteps(c *evalCtx, input xdm.Sequence) (xdm.Sequence, error) {
	current := input
	saved := c.focus
	for si := range p.steps {
		sp := &p.steps[si]
		var result xdm.Sequence
		owned := true
		var err error
		if si == 0 && input == nil {
			// Axis steps need the enclosing focus, filter primaries are
			// focus-free.
			if sp.primary == nil && !c.focus.set {
				return nil, &Error{Code: "XPDY0002", Pos: sp.pos,
					Msg: "axis step with no context item"}
			}
			if result, owned, err = sp.head(c); err != nil {
				return nil, err
			}
		} else {
			for pos, it := range current {
				c.focus = focus{item: it, pos: pos + 1, size: len(current), set: true}
				if result, err = sp.appendTo(c, result); err != nil {
					c.focus = saved
					return nil, err
				}
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
			if !owned && !xmltree.InDocOrderFunc(result, itemNode) {
				result = append(xdm.Sequence(nil), result...)
			}
			result = xmltree.SortDocOrderFunc(result, itemNode)
		case hasAtomic && si < len(p.steps)-1:
			return nil, &Error{Code: "XPTY0019", Pos: p.steps[si+1].pos,
				Msg: "path step applied to atomic values"}
		}
		current = result
	}
	return current, nil
}

// itemNode is the node of an item classify found to be a node.
func itemNode(it xdm.Item) *xmltree.Node { return it.(xdm.NodeItem).Node }

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

// filter evaluates a standalone filter expression E[p]. No sort follows, so
// it is the head of a path with nothing after it.
func (sp *stepPlan) filter(c *evalCtx) (xdm.Sequence, error) {
	out, _, err := sp.head(c)
	return out, err
}

// head evaluates a relative path's first step, once, against the current
// focus. An axis step appends into a result of its own; a filter step hands
// its primary's value through, unowned, to predicates that copy it at their
// first write (applyPredicates). owned reports which of the two came back.
func (sp *stepPlan) head(c *evalCtx) (out xdm.Sequence, owned bool, err error) {
	if sp.primary == nil {
		out, err = sp.appendTo(c, nil)
		return out, true, err
	}
	prim, err := sp.primary(c)
	if err != nil {
		return nil, false, err
	}
	return applyPredicates(c, sp.preds, prim, 0, false)
}

// appendTo evaluates one step against the current focus and appends what it
// selects to dst. The step owns dst[len(dst):] only: candidates go straight
// onto dst and the predicates filter that tail in place. A filter step copies
// its primary's value there too, as the candidates of this context item.
func (sp *stepPlan) appendTo(c *evalCtx, dst xdm.Sequence) (xdm.Sequence, error) {
	start := len(dst)
	if sp.primary != nil {
		prim, err := sp.primary(c)
		if err != nil {
			return nil, err
		}
		return filterOwned(c, sp.preds, append(dst, prim...), start)
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
		if val, verdict, err = a.keyValue(c); err != nil {
			return nil, err
		}
		if verdict == keyNone {
			return dst, nil
		}
		if keyed = verdict == keyProbe; !keyed {
			preds = sp.unfolded
		}
	}
	if a != nil {
		if out, served := a.probe(dst, node, keyed, val); served {
			return filterOwned(c, preds, out, start)
		}
	}
	// Predicates see positions in axis order (reverse axes count backward
	// from the context node), which is already the order of the tail. The
	// walk reserves nothing: how many candidates pass the name test is only
	// known by running it.
	for _, cand := range sp.axisFunc(node) {
		if sp.test(cand) {
			if keyed && !a.subject.Holds(cand, val) {
				continue // the folded key predicate applies on the walk fallback too
			}
			dst = append(dst, xdm.NewNode(cand))
		}
	}
	return filterOwned(c, preds, dst, start)
}

// grow is slices.Grow written out: the same one allocation, at least
// doubling, with or without the race detector, under which slices.Grow's
// append-of-make idiom is compiled as a make and an append, two allocations.
func grow(s xdm.Sequence, n int) xdm.Sequence {
	if need := len(s) + n; need > cap(s) {
		s = append(make(xdm.Sequence, 0, max(need, 2*cap(s))), s...)
	}
	return s
}

// applyPredicates filters seq[start:] through each predicate in turn;
// seq[:start] is not read. Positions and last() are relative to the tail. A
// predicate evaluating to a singleton numeric value selects by position;
// anything else filters by effective boolean value.
//
// owned says whether the caller owns seq's backing array. An owned tail is
// compacted in place and the dropped slots are cleared. One that is not —
// a variable's value, say — is never written: it is copied at the first
// write, the first candidate kept after one was dropped, and a tail that
// only loses its end is resliced with its capacity cut, so an append to the
// result copies too. The owned it returns says whether the caller may write
// the result: it owned seq, or a copy was made.
func applyPredicates(c *evalCtx, preds []predPlan, seq xdm.Sequence, start int, owned bool) (xdm.Sequence, bool, error) {
	if len(preds) == 0 {
		return seq, owned, nil
	}
	saved := c.focus
	for pi := range preds {
		pred := &preds[pi]
		cands := seq[start:]
		kept := start
		for i, it := range cands {
			pos := i + 1
			c.focus = focus{item: it, pos: pos, size: len(cands), set: true}
			pv, err := pred.expr(c)
			if err != nil {
				c.focus = saved
				return nil, false, err
			}
			keep, err := predicateHolds(pv, pos)
			if err != nil {
				c.focus = saved
				return nil, false, errAt(err, pred.pos)
			}
			if !keep {
				continue
			}
			if kept != start+i {
				if !owned {
					// The first write: copy what is kept so far into room
					// for the rest. cands still reads the original.
					fresh := make(xdm.Sequence, kept+len(cands)-i)
					copy(fresh, seq[:kept])
					seq, owned = fresh, true
				}
				seq[kept] = it
			}
			kept++
		}
		if owned {
			// The dropped tail keeps no nodes reachable.
			clear(seq[kept:])
			seq = seq[:kept]
		} else {
			seq = seq[:kept:kept]
		}
	}
	c.focus = saved
	return seq, owned, nil
}

// filterOwned is applyPredicates over a tail the step owns.
func filterOwned(c *evalCtx, preds []predPlan, seq xdm.Sequence, start int) (xdm.Sequence, error) {
	out, _, err := applyPredicates(c, preds, seq, start, true)
	return out, err
}

func predicateHolds(pv xdm.Sequence, pos int) (bool, error) {
	if len(pv) == 1 && xdm.IsNumeric(pv[0]) {
		return xdm.IsPosition(pv[0], pos), nil
	}
	return xdm.EffectiveBool(pv)
}
