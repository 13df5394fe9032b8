package parser

import (
	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/lexer"
)

var axisNames = map[string]ast.Axis{
	"child":              ast.AxisChild,
	"descendant":         ast.AxisDescendant,
	"attribute":          ast.AxisAttribute,
	"self":               ast.AxisSelf,
	"descendant-or-self": ast.AxisDescendantOrSelf,
	"following-sibling":  ast.AxisFollowingSibling,
	"following":          ast.AxisFollowing,
	"parent":             ast.AxisParent,
	"ancestor":           ast.AxisAncestor,
	"preceding-sibling":  ast.AxisPrecedingSibling,
	"preceding":          ast.AxisPreceding,
	"ancestor-or-self":   ast.AxisAncestorOrSelf,
}

// kindTestNames are names that form kind tests when followed by '(' and are
// therefore reserved as function names.
// Note "empty" is absent: the 2004 draft's empty() sequence type collides
// with fn:empty(), so it is recognized only in sequence-type position.
var kindTestNames = map[string]bool{
	"node": true, "text": true, "comment": true, "processing-instruction": true,
	"element": true, "attribute": true, "document-node": true,
	"empty-sequence": true, "item": true,
}

// reservedFuncNames may never be parsed as static function calls.
var reservedFuncNames = map[string]bool{
	"if": true, "typeswitch": true,
}

func (p *Parser) parsePath() (ast.Expr, error) {
	b := p.at()
	root := ast.RootNone
	switch p.tok.Kind {
	case lexer.SLASH:
		root = ast.RootSlash
	case lexer.SLASHSLASH:
		root = ast.RootSlashSlash
	}
	if root != ast.RootNone {
		if err := p.next(); err != nil {
			return nil, err
		}
		if root == ast.RootSlash && !p.startsStep() {
			// A lone "/" selects the document root.
			return &ast.PathExpr{Base: b, Root: root}, nil
		}
	}
	steps, err := p.parseSteps()
	if err != nil {
		return nil, err
	}
	// A single filter step with no predicates is just its primary.
	if root == ast.RootNone && len(steps) == 1 && steps[0].Primary != nil && len(steps[0].Preds) == 0 {
		return steps[0].Primary, nil
	}
	return &ast.PathExpr{Base: b, Root: root, Steps: steps}, nil
}

// parseSteps parses StepExpr (("/"|"//") StepExpr)*.
func (p *Parser) parseSteps() ([]ast.Step, error) {
	var steps []ast.Step
	step, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	steps = append(steps, step)
	for {
		switch p.tok.Kind {
		case lexer.SLASH:
			if err := p.next(); err != nil {
				return nil, err
			}
		case lexer.SLASHSLASH:
			// a//b  ==  a/descendant-or-self::node()/b
			steps = append(steps, ast.Step{
				Axis: ast.AxisDescendantOrSelf,
				Test: ast.NodeTest{Kind: &xdm.SequenceType{Kind: xdm.TestAnyNode}},
				P:    p.tok.Pos,
			})
			if err := p.next(); err != nil {
				return nil, err
			}
		default:
			return steps, nil
		}
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		steps = append(steps, step)
	}
}

// startsStep reports whether the current token can begin a path step.
func (p *Parser) startsStep() bool {
	switch p.tok.Kind {
	case lexer.NAME, lexer.STAR, lexer.AT, lexer.DOT, lexer.DOTDOT, lexer.VAR,
		lexer.STRING, lexer.INTEGER, lexer.DECIMAL, lexer.DOUBLE,
		lexer.LPAREN, lexer.LT:
		return true
	}
	return false
}

func (p *Parser) parseStep() (ast.Step, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case lexer.DOTDOT:
		if err := p.next(); err != nil {
			return ast.Step{}, err
		}
		step := ast.Step{Axis: ast.AxisParent, Test: ast.NodeTest{Kind: &xdm.SequenceType{Kind: xdm.TestAnyNode}}, P: pos}
		return p.parsePredicatesInto(step)
	case lexer.AT:
		if err := p.next(); err != nil {
			return ast.Step{}, err
		}
		test, err := p.parseNodeTest(ast.AxisAttribute)
		if err != nil {
			return ast.Step{}, err
		}
		return p.parsePredicatesInto(ast.Step{Axis: ast.AxisAttribute, Test: test, P: pos})
	case lexer.STAR:
		if err := p.next(); err != nil {
			return ast.Step{}, err
		}
		return p.parsePredicatesInto(ast.Step{Axis: ast.AxisChild, Test: ast.NodeTest{Name: "*"}, P: pos})
	case lexer.NAME:
		nxt := p.peek(1)
		// Explicit axis: name::
		if axis, ok := axisNames[p.tok.Text]; ok && nxt.Kind == lexer.AXISSEP {
			if err := p.next(); err != nil {
				return ast.Step{}, err
			}
			if err := p.next(); err != nil { // ::
				return ast.Step{}, err
			}
			test, err := p.parseNodeTest(axis)
			if err != nil {
				return ast.Step{}, err
			}
			return p.parsePredicatesInto(ast.Step{Axis: axis, Test: test, P: pos})
		}
		// Kind test as a child-axis step: text(), node(), element(a), ...
		if kindTestNames[p.tok.Text] && nxt.Kind == lexer.LPAREN {
			// element { and attribute { are computed constructors, caught
			// below; with '(' next this is a kind test.
			test, err := p.parseNodeTest(ast.AxisChild)
			if err != nil {
				return ast.Step{}, err
			}
			return p.parsePredicatesInto(ast.Step{Axis: ast.AxisChild, Test: test, P: pos})
		}
		// Computed constructors and function calls are primaries; plain
		// names are child-axis name tests.
		if nxt.Kind != lexer.LPAREN && nxt.Kind != lexer.LBRACE && !p.startsComputedConstructor() {
			name := p.tok.Text
			if err := p.next(); err != nil {
				return ast.Step{}, err
			}
			return p.parsePredicatesInto(ast.Step{Axis: ast.AxisChild, Test: ast.NodeTest{Name: name}, P: pos})
		}
		if nxt.Kind == lexer.LPAREN && !p.startsComputedConstructor() {
			if reservedFuncNames[p.tok.Text] {
				return ast.Step{}, p.errf("%q cannot be used as a function name", p.tok.Text)
			}
			call, err := p.parseFunctionCall()
			if err != nil {
				return ast.Step{}, err
			}
			return p.parsePredicatesInto(ast.Step{Primary: call, P: pos})
		}
	}
	prim, err := p.parsePrimary()
	if err != nil {
		return ast.Step{}, err
	}
	return p.parsePredicatesInto(ast.Step{Primary: prim, P: pos})
}

func (p *Parser) parsePredicatesInto(step ast.Step) (ast.Step, error) {
	for p.tok.Kind == lexer.LBRACKET {
		if err := p.next(); err != nil {
			return ast.Step{}, err
		}
		pred, err := p.parseExpr()
		if err != nil {
			return ast.Step{}, err
		}
		if err := p.expect(lexer.RBRACKET); err != nil {
			return ast.Step{}, err
		}
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

// parseNodeTest parses a name test or kind test following an axis.
func (p *Parser) parseNodeTest(axis ast.Axis) (ast.NodeTest, error) {
	switch p.tok.Kind {
	case lexer.STAR:
		if err := p.next(); err != nil {
			return ast.NodeTest{}, err
		}
		return ast.NodeTest{Name: "*"}, nil
	case lexer.NAME:
		if kindTestNames[p.tok.Text] && p.peek(1).Kind == lexer.LPAREN {
			kind, err := p.parseKindTest()
			if err != nil {
				return ast.NodeTest{}, err
			}
			return ast.NodeTest{Kind: kind}, nil
		}
		name := p.tok.Text
		if err := p.next(); err != nil {
			return ast.NodeTest{}, err
		}
		return ast.NodeTest{Name: name}, nil
	}
	return ast.NodeTest{}, p.errf("expected node test after axis %s::", axis)
}

// parseKindTest parses node(), text(), comment(), processing-instruction(N?),
// element(N?), attribute(N?), document-node(). The current token is the
// kind-test name.
func (p *Parser) parseKindTest() (*xdm.SequenceType, error) {
	name := p.tok.Text
	if err := p.next(); err != nil {
		return nil, err
	}
	if err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	t := &xdm.SequenceType{}
	switch name {
	case "node":
		t.Kind = xdm.TestAnyNode
	case "text":
		t.Kind = xdm.TestText
	case "comment":
		t.Kind = xdm.TestComment
	case "document-node":
		t.Kind = xdm.TestDocument
	case "processing-instruction":
		t.Kind = xdm.TestPI
		if p.tok.Kind == lexer.NAME || p.tok.Kind == lexer.STRING {
			t.NodeName = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	case "element", "attribute":
		if name == "element" {
			t.Kind = xdm.TestElement
		} else {
			t.Kind = xdm.TestAttribute
		}
		if p.tok.Kind == lexer.NAME || p.tok.Kind == lexer.STAR {
			t.NodeName = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			// Optional ", TypeName" — accepted and ignored (untyped mode).
			if p.tok.Kind == lexer.COMMA {
				if err := p.next(); err != nil {
					return nil, err
				}
				if p.tok.Kind != lexer.NAME {
					return nil, p.errf("expected type name in kind test")
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
		}
	case "empty-sequence", "empty":
		t.Kind = xdm.TestEmptySequence
	case "item":
		t.Kind = xdm.TestAnyItem
	default:
		return nil, p.errf("unknown kind test %q", name)
	}
	if err := p.expect(lexer.RPAREN); err != nil {
		return nil, err
	}
	return t, nil
}

// parseSequenceType parses a sequence type with occurrence indicator.
func (p *Parser) parseSequenceType() (xdm.SequenceType, error) {
	var t xdm.SequenceType
	if p.tok.Kind != lexer.NAME {
		return t, p.errf("expected sequence type")
	}
	if (kindTestNames[p.tok.Text] || p.tok.Text == "empty") && p.peek(1).Kind == lexer.LPAREN {
		kt, err := p.parseKindTest()
		if err != nil {
			return t, err
		}
		t = *kt
	} else {
		t = xdm.SequenceType{Kind: xdm.TestAtomic}
		t.Type, _ = xdm.TypeNamed(p.tok.Text)
		if err := p.next(); err != nil {
			return t, err
		}
	}
	if t.Kind == xdm.TestEmptySequence {
		return t, nil
	}
	switch p.tok.Kind {
	case lexer.QUESTION:
		t.Occurrence = xdm.Optional
		return t, p.next()
	case lexer.STAR:
		t.Occurrence = xdm.ZeroOrMore
		return t, p.next()
	case lexer.PLUS:
		t.Occurrence = xdm.OneOrMore
		return t, p.next()
	}
	t.Occurrence = xdm.One
	return t, nil
}

// parseSingleType parses the target of cast/castable: an atomic type name
// with optional '?'.
func (p *Parser) parseSingleType() (name string, optional bool, err error) {
	if p.tok.Kind != lexer.NAME {
		return "", false, p.errf("expected atomic type name")
	}
	name = p.tok.Text
	if err := p.next(); err != nil {
		return "", false, err
	}
	if p.tok.Kind == lexer.QUESTION {
		return name, true, p.next()
	}
	return name, false, nil
}
