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

// attrEq is one [@name = 'value'] predicate, checked existentially against
// the element's attributes (untyped-vs-string general comparison is string
// equality).
type attrEq struct {
	name, value string
}

// step is one downward step of the plan's path.
type step struct {
	name  string // element name test: "x", "*", "pre:*", "*:local"
	desc  bool   // reachable at any depth (descendant) vs direct child
	attrs []attrEq
}

// Plan is a classified streamable query.
type Plan struct {
	mode Mode
	// steps match elements root-down; attrFinal, when non-empty, is a final
	// attribute-axis name test applied to elements matching all steps.
	steps     []step
	attrFinal string
}

// Mode returns the plan's result mode.
func (p *Plan) Mode() Mode { return p.mode }

// String renders the plan the way EXPLAIN prints it: mode then path.
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString(p.mode.String())
	b.WriteByte(' ')
	for _, st := range p.steps {
		if st.desc {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(st.name)
		for _, a := range st.attrs {
			b.WriteString("[@")
			b.WriteString(a.name)
			b.WriteString("='")
			b.WriteString(a.value)
			b.WriteString("']")
		}
	}
	if p.attrFinal != "" {
		b.WriteString("/@")
		b.WriteString(p.attrFinal)
	}
	return b.String()
}

// Classify decides whether a module is pure-streamable. It returns the plan,
// or nil and the reason it must fall back to a lower tier. The module may be
// raw or optimized: both encodings of `//` (explicit descendant-or-self
// separator steps and fused descendant steps) are recognized, as are
// attribute predicates the optimizer folded into an access path.
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
	if len(p.steps) == 0 {
		return nil, "path has no element steps"
	}
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
			if st.Axis == ast.AxisDescendantOrSelf && st.Test.Kind.Kind == xdm.TestAnyNode &&
				len(st.Preds) == 0 && !last {
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
			if len(st.Preds) > 0 || (st.Access != nil && st.Access.AttrName != "") {
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
		s := step{
			name: st.Test.Name,
			desc: pending || st.Axis == ast.AxisDescendant,
		}
		pending = false
		// The optimizer folds a leading [@attr = 'lit'] predicate into the
		// step's access path; recover it from either place.
		if st.Access != nil && st.Access.AttrName != "" {
			s.attrs = append(s.attrs, attrEq{name: st.Access.AttrName, value: st.Access.AttrValue})
		}
		for _, pr := range st.Preds {
			eq, ok := attrEqPred(pr)
			if !ok {
				return "unstreamable predicate"
			}
			s.attrs = append(s.attrs, eq)
		}
		p.steps = append(p.steps, s)
	}
	if pending {
		return "path ends with //"
	}
	return ""
}

// attrEqPred matches [@name = 'literal'] (either operand order) with a
// plain attribute name.
func attrEqPred(e ast.Expr) (attrEq, bool) {
	b, ok := e.(*ast.Binary)
	if !ok || b.Kind != ast.OpGeneralComp || b.Cmp != xdm.OpEq {
		return attrEq{}, false
	}
	if eq, ok := attrLit(b.L, b.R); ok {
		return eq, true
	}
	return attrLit(b.R, b.L)
}

func attrLit(l, r ast.Expr) (attrEq, bool) {
	lit, ok := r.(*ast.StringLit)
	if !ok {
		return attrEq{}, false
	}
	pe, ok := l.(*ast.PathExpr)
	if !ok || pe.Root != ast.RootNone || len(pe.Steps) != 1 {
		return attrEq{}, false
	}
	s := pe.Steps[0]
	if s.Primary != nil || s.Axis != ast.AxisAttribute || len(s.Preds) != 0 || s.Test.Kind != nil {
		return attrEq{}, false
	}
	if strings.Contains(s.Test.Name, "*") {
		return attrEq{}, false
	}
	return attrEq{name: s.Test.Name, value: lit.Value}, true
}

// Stats reports what one streaming run did.
type Stats struct {
	// BytesScanned is the input size consumed.
	BytesScanned int64
	// MaxDepth is the deepest open-element nesting seen.
	MaxDepth int
	// Matches counts result nodes (elements or attributes).
	Matches int64
}

// frame is the per-open-element evaluator state: the NFA states live at the
// element (step indices to try against its children) and, in serialize
// mode, the node being built when the element lies inside a result subtree.
type frame struct {
	states []int
	build  *xmltree.Node
}

// Run evaluates the plan against a document read from r and returns the
// query result already serialized (identically to the materializing
// engine's EvalString). The input is always scanned to the end so malformed
// documents report the same parse error every tier reports.
func (p *Plan) Run(r io.Reader, opts xmltree.ParseOptions) (string, Stats, error) {
	s := xmltree.NewScanner(r, opts)
	var st Stats
	var count int64
	var results []*xmltree.Node
	var attrResults []string
	frames := []frame{{states: []int{0}}}
	for {
		tok, err := s.Next()
		if err != nil {
			return "", st, err
		}
		top := &frames[len(frames)-1]
		switch tok.Kind {
		case xmltree.TokStartElement:
			var next []int
			matched := false
			for _, si := range top.states {
				stp := &p.steps[si]
				if stp.desc {
					next = append(next, si)
				}
				if !xmltree.NameTestMatches(stp.name, tok.Name) || !attrsHold(stp.attrs, tok.Attrs) {
					continue
				}
				if si+1 == len(p.steps) {
					matched = true
				} else if !contains(next, si+1) {
					next = append(next, si+1)
				}
			}
			if matched {
				if p.attrFinal != "" {
					for _, a := range tok.Attrs {
						if xmltree.NameTestMatches(p.attrFinal, a.Name) {
							count++
							st.Matches++
							if p.mode == ModeSerialize {
								attrResults = append(attrResults, a.Name+`="`+xmltree.EscapeAttr(a.Value)+`"`)
							}
						}
					}
				} else {
					count++
					st.Matches++
				}
			}
			elementMatch := matched && p.attrFinal == ""
			var build *xmltree.Node
			if p.mode == ModeSerialize && (elementMatch || top.build != nil) {
				build = xmltree.NewElement(tok.Name)
				for _, a := range tok.Attrs {
					build.SetAttr(a.Name, a.Value)
				}
				if top.build != nil {
					top.build.AppendChild(build)
				}
				if elementMatch {
					results = append(results, build)
				}
			}
			if len(next) == 0 && build == nil {
				// Nothing below can match or needs building: validate and
				// skip the subtree without touching the NFA stack.
				if err := s.SkipElement(); err != nil {
					return "", st, err
				}
				continue
			}
			frames = append(frames, frame{states: next, build: build})
			if d := len(frames) - 1; d > st.MaxDepth {
				st.MaxDepth = d
			}
		case xmltree.TokEndElement:
			frames = frames[:len(frames)-1]
		case xmltree.TokText:
			if top.build != nil {
				top.build.AppendChild(xmltree.NewText(tok.Data))
			}
		case xmltree.TokComment:
			if top.build != nil {
				top.build.AppendChild(xmltree.NewComment(tok.Data))
			}
		case xmltree.TokPI:
			if top.build != nil {
				top.build.AppendChild(xmltree.NewPI(tok.Name, tok.Data))
			}
		case xmltree.TokEOF:
			st.BytesScanned = s.BytesRead()
			return p.render(count, results, attrResults), st, nil
		}
	}
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

func attrsHold(preds []attrEq, attrs []xmltree.ScanAttr) bool {
	for _, p := range preds {
		ok := false
		for _, a := range attrs {
			if a.Name == p.name && a.Value == p.value {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
