package xslt

import (
	"cmp"
	"fmt"
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/lexer"
	"lopsided/internal/xquery/parser"
)

// pattern is a compiled match pattern: XSLT 1.0 defines one as a restricted
// XPath location path, so the XQuery parser reads it and each alternative of
// its '|' union is walked with the evaluator's node tests.
type pattern struct {
	alts     [][]matchStep // a lone '/' is an alternative with no steps
	priority float64       // the default priority: the alternatives' highest
}

type matchStep struct {
	test        func(*xmltree.Node) bool
	attr        bool // an attribute step, which only the last step may be
	anyAncestor bool // joined to the step on its left by '//' (not a step)
	underDoc    bool // the first step of a '/'-rooted path
}

// parsePattern compiles the XSLT 1.0 pattern subset: a '|' union of paths
// rooted at '/', '//' or nothing, of child steps joined by '/' or '//' and
// at most one attribute step, last, each with any node test but no predicate.
func parsePattern(src string) (*pattern, error) {
	mod, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("xslt: pattern %q: %w", src, err)
	}
	// An alternative starts at the first token or at the one after its '|';
	// anything else before it is a prolog or a parenthesis.
	next, prev, lx := map[ast.Pos]ast.Pos{}, ast.Pos{}, lexer.New(src)
	for tok, err := lx.Next(); err == nil && tok.Kind != lexer.EOF; tok, err = lx.Next() {
		next[prev], prev = tok.Pos, tok.Pos
	}
	p := &pattern{priority: -1}
	if why := p.add(mod.Body, next[ast.Pos{}], next); why != "" {
		return nil, fmt.Errorf("xslt: pattern %q: %s is not in the XSLT pattern subset", src, why)
	}
	return p, nil
}

// add compiles e, a union or one alternative starting at start, into p, or
// names what is outside the subset; next maps a token to the one after it.
func (p *pattern) add(e ast.Expr, start ast.Pos, next map[ast.Pos]ast.Pos) string {
	if b, ok := e.(*ast.Binary); ok && b.Kind == ast.OpUnion {
		return cmp.Or(p.add(b.L, start, next), p.add(b.R, next[b.P], next))
	}
	pe, ok := e.(*ast.PathExpr)
	if !ok {
		return "an expression that is not a location path"
	} else if pe.P != start {
		return "a prolog or a parenthesis"
	}
	var alt []matchStep
	for i, st := range pe.Steps {
		switch {
		case st.Primary != nil || len(st.Preds) > 0:
			return "a predicate or filter step"
		case i > 0 && pe.Steps[i-1].Axis == ast.AxisAttribute:
			return "a step after an attribute step"
		case st.Axis == ast.AxisDescendantOrSelf && st.Test.Kind != nil &&
			st.Test.Kind.Kind == xdm.TestAnyNode && i > 0 && i < len(pe.Steps)-1:
			continue // an interior '//': it marks the step after it
		case st.Axis != ast.AxisChild && st.Axis != ast.AxisAttribute:
			return "the " + st.Axis.String() + " axis"
		}
		alt = append(alt, matchStep{interp.NodeTest(st.Test, st.Axis), st.Axis == ast.AxisAttribute,
			i > 0 && pe.Steps[i-1].Axis == ast.AxisDescendantOrSelf, len(alt) == 0 && pe.Root == ast.RootSlash})
	}
	prio := 0.0 // XSLT 1.0 §5.5: a single name step
	switch {
	case len(pe.Steps) == 0 || pe.Root == ast.RootNone && len(pe.Steps) == 1 && pe.Steps[0].Test.Kind != nil:
		prio = -0.5 // a lone '/' or a kind test
	case len(pe.Steps) > 1 || pe.Root != ast.RootNone:
		prio = 0.5
	case strings.Contains(pe.Steps[0].Test.Name, "*"):
		prio = -0.25
	}
	p.alts, p.priority = append(p.alts, alt), max(p.priority, prio)
	return ""
}

// matches reports whether the pattern matches the node.
func (p *pattern) matches(n *xmltree.Node) bool {
	for _, alt := range p.alts {
		if len(alt) == 0 && n.Kind == xmltree.DocumentNode || len(alt) > 0 && matchSteps(alt, n) {
			return true
		}
	}
	return false
}

// matchSteps walks steps right to left: the last must accept n, the rest
// must match n's parent, or for a '//' join any ancestor. A child step needs
// no parent, so a parentless source root matches a relative path.
func matchSteps(steps []matchStep, n *xmltree.Node) bool {
	st := steps[len(steps)-1]
	if n.Kind == xmltree.DocumentNode || (n.Kind == xmltree.AttributeNode) != st.attr || !st.test(n) {
		return false
	}
	if len(steps) == 1 {
		return !st.underDoc || n.Parent != nil && n.Parent.Kind == xmltree.DocumentNode
	}
	for up := n.Parent; up != nil; up = up.Parent {
		if ok := matchSteps(steps[:len(steps)-1], up); ok || !st.anyAncestor {
			return ok
		}
	}
	return false
}
