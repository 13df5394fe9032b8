// Package stream implements the pure-streaming evaluation tier: a static
// classifier that recognizes the downward-axis aggregate/serialize fragment,
// and a SAX-style evaluator that answers such queries directly from the
// token stream — O(depth) state for aggregates, O(result) for
// serialization, and never a materialized document.
//
// The fragment is deliberately small: a single absolute path of child and
// descendant name steps (with optional [@attr = 'literal'] predicates and an
// optional final attribute step), consumed by fn:count, fn:exists, fn:empty,
// or serialized as the query result. Everything else falls back to the
// projected or materializing tiers; the classifier's verdict can cost
// memory, never correctness.
package stream

import (
	"io"
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
)

// Mode is the result shape of a streamable plan.
type Mode int

// The streamable result modes.
const (
	ModeCount Mode = iota
	ModeExists
	ModeEmpty
	ModeSerialize
)

// String returns the mode name as EXPLAIN prints it.
func (m Mode) String() string {
	switch m {
	case ModeCount:
		return "count"
	case ModeExists:
		return "exists"
	case ModeEmpty:
		return "empty"
	case ModeSerialize:
		return "serialize"
	}
	return "?"
}

// Plan is a classified streamable query: the path's element steps, with
// their [@attr = 'literal'] conditions, as the path value the projected
// parser's matcher consumes, plus the optional final attribute step.
type Plan struct {
	mode Mode
	// path matches elements root-down; Subtree is set when the matched
	// elements themselves are the (serialized) result.
	path xmltree.ProjPath
	// attrFinal, when non-empty, is a final attribute-axis name test
	// applied to elements matching the path.
	attrFinal string
}

// Mode returns the plan's result mode.
func (p *Plan) Mode() Mode { return p.mode }

// String renders the plan the way EXPLAIN prints it: mode then path, the
// path in the projection's notation.
func (p *Plan) String() string {
	pp := xmltree.ProjPath{Steps: p.path.Steps}
	if p.attrFinal != "" {
		pp.Attrs = []string{p.attrFinal}
	}
	return p.mode.String() + " " + (&xmltree.Projection{Paths: []xmltree.ProjPath{pp}}).String()
}

// Classify decides whether a module is pure-streamable. It returns the plan,
// or nil and the reason it must fall back to a lower tier. The module may be
// raw or optimized: both encodings of `//` (explicit descendant-or-self
// separator steps and fused descendant steps) are recognized.
func Classify(m *ast.Module) (*Plan, string) {
	if len(m.Functions) > 0 {
		return nil, "prolog declares functions"
	}
	if len(m.Vars) > 0 {
		return nil, "prolog declares variables"
	}
	if len(m.ElidedTraces) > 0 {
		return nil, "elided trace reports require the interpreter"
	}
	mode := ModeSerialize
	pe, ok := m.Body.(*ast.PathExpr)
	if !ok {
		call, isCall := m.Body.(*ast.FunctionCall)
		if !isCall || len(call.Args) != 1 {
			return nil, "body is not a path or aggregate-of-path"
		}
		switch strings.TrimPrefix(call.Name, "fn:") {
		case "count":
			mode = ModeCount
		case "exists":
			mode = ModeExists
		case "empty":
			mode = ModeEmpty
		default:
			return nil, "aggregate " + call.Name + " is not streamable"
		}
		pe, ok = call.Args[0].(*ast.PathExpr)
		if !ok {
			return nil, "aggregate argument is not a path"
		}
	}
	p := &Plan{mode: mode}
	if reason := p.addPath(pe); reason != "" {
		return nil, reason
	}
	if len(p.path.Steps) == 0 {
		return nil, "path has no element steps"
	}
	p.path.Subtree = mode == ModeSerialize && p.attrFinal == ""
	return p, ""
}

// addPath compiles a path expression into plan steps, returning a non-empty
// reason on any construct outside the fragment.
func (p *Plan) addPath(pe *ast.PathExpr) string {
	// The context item is always the document node in streaming evaluation,
	// so a relative path means the same as an absolute one.
	pending := pe.Root == ast.RootSlashSlash
	for i, st := range pe.Steps {
		last := i == len(pe.Steps)-1
		if st.Primary != nil {
			return "filter step"
		}
		if st.Test.Kind != nil {
			if st.IsDescendantOrSelfNode() && !last {
				pending = true
				continue
			}
			return "kind test " + st.Test.Kind.String()
		}
		switch st.Axis {
		case ast.AxisChild, ast.AxisDescendant:
		case ast.AxisAttribute:
			if !last {
				return "attribute step before the end of the path"
			}
			if len(st.Preds) > 0 {
				return "predicate on attribute step"
			}
			if pending {
				return "// immediately before an attribute step"
			}
			p.attrFinal = st.Test.Name
			return ""
		default:
			return "axis " + st.Axis.String()
		}
		s := xmltree.ProjStep{Name: st.Test.Name, Desc: pending || st.Axis == ast.AxisDescendant}
		pending = false
		for _, pr := range st.Preds {
			attr, value, ok := ast.AttrEqLiteral(pr)
			if !ok {
				return "unstreamable predicate"
			}
			s.Conds = append(s.Conds, xmltree.AttrCond{Name: attr, Value: value})
		}
		p.path.Steps = append(p.path.Steps, s)
	}
	if pending {
		return "path ends with //"
	}
	return ""
}

// Stats reports what one streaming run did.
type Stats struct {
	// BytesScanned is the input size consumed.
	BytesScanned int64
	// Matches counts result nodes (elements or attributes).
	Matches int64
}

// Run evaluates the plan against a document read from r and returns the
// query result already serialized (identically to the materializing
// engine's EvalString). The input is always scanned to the end so malformed
// documents report the same parse error every tier reports. The matcher is
// the projected parser's (xmltree.ScanMatches): aggregates keep a counter
// and the attribute-final form a string per match, so their state is the
// matcher's O(depth) frame stack; serialization keeps the matched subtrees,
// O(result).
func (p *Plan) Run(r io.Reader, opts xmltree.ParseOptions) (string, Stats, error) {
	var st Stats
	var results []*xmltree.Node
	var attrResults []string
	n, err := xmltree.ScanMatches(r, opts, p.path, func(tok xmltree.Token, subtree *xmltree.Node) {
		if p.attrFinal == "" {
			st.Matches++
			if subtree != nil {
				results = append(results, subtree)
			}
			return
		}
		for _, a := range tok.Attrs {
			if xmltree.NameTestMatches(p.attrFinal, a.Name) {
				st.Matches++
				if p.mode == ModeSerialize {
					attrResults = append(attrResults, a.Name+`="`+xmltree.EscapeAttr(a.Value)+`"`)
				}
			}
		}
	})
	st.BytesScanned = n
	if err != nil {
		return "", st, err
	}
	return p.render(st.Matches, results, attrResults), st, nil
}

func (p *Plan) render(count int64, results []*xmltree.Node, attrResults []string) string {
	switch p.mode {
	case ModeCount:
		return xdm.Integer(count).StringValue()
	case ModeExists:
		return xdm.Boolean(count > 0).StringValue()
	case ModeEmpty:
		return xdm.Boolean(count == 0).StringValue()
	}
	if p.attrFinal != "" {
		return strings.Join(attrResults, " ")
	}
	parts := make([]string, len(results))
	for i, n := range results {
		parts[i] = n.String()
	}
	return strings.Join(parts, " ")
}
