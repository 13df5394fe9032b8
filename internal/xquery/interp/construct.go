package interp

import (
	"fmt"
	"slices"
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
)

// This file implements the draft-2004 construction semantics the paper's
// "Treatment of Child Elements" section documents:
//
//   - each enclosed expression's atomic values are space-joined into text;
//   - node values are deep-copied into the new element;
//   - attribute nodes in LEADING content positions fold into the element's
//     attributes ("Saying that attribute nodes presented to the element
//     constructor as children become attributes is certainly a simple way
//     to arrange it");
//   - an attribute node after non-attribute content is an error (XQTY0024);
//   - duplicate attribute names resolve per the configured policy.
//
// Every constructor compiles into one of two plans: a containerPlan builds
// an element or a document node, a leafPlan a node holding one string (an
// attribute, text, comment or PI). Literal text runs, attribute-value
// templates and boundary-whitespace stripping are resolved at compile time;
// only enclosed expressions remain as compiled closures.

// part is one run of a direct attribute value or one entry of a container's
// content: literal text (expr nil) or an enclosed expression.
type part struct {
	text string
	expr compiledExpr
}

type dirAttrPlan struct {
	name  string
	parts []part
}

// containerPlan is the plan of the direct and computed element
// constructors and of the document constructor.
type containerPlan struct {
	kind     xmltree.NodeKind // ElementNode or DocumentNode
	name     string           // the static name
	nameExpr compiledExpr     // the computed name; nil when static
	attrs    []dirAttrPlan    // a direct element's attributes
	content  []part
	pos      ast.Pos
}

func (cp *compiler) compileContainer(e ast.Expr) compiledExpr {
	p := &containerPlan{kind: xmltree.ElementNode, pos: e.Pos()}
	var content ast.Expr // a computed constructor's content
	switch n := e.(type) {
	case *ast.DirElem:
		p.name = n.Name
		for _, attr := range n.Attrs {
			ap := dirAttrPlan{name: attr.Name}
			for _, x := range attr.Parts {
				if lit, ok := x.(*ast.StringLit); ok {
					ap.parts = append(ap.parts, part{text: lit.Value})
				} else {
					ap.parts = append(ap.parts, part{expr: cp.compile(x)})
				}
			}
			p.attrs = append(p.attrs, ap)
		}
		preserve := cp.prog.mod.BoundarySpacePreserve
		for i, x := range n.Content {
			lit, ok := x.(*ast.StringLit)
			switch {
			case !ok || i >= len(n.LiteralText):
				p.content = append(p.content, part{expr: cp.compile(x)})
			case !n.LiteralText[i] || preserve || strings.TrimSpace(lit.Value) != "":
				p.content = append(p.content, part{text: lit.Value})
			} // otherwise boundary whitespace, stripped (draft default)
		}
	case *ast.CompElem:
		p.name, p.nameExpr, content = n.Name, cp.compileOptional(n.NameExpr, nil), n.Content
	case *ast.CompDoc:
		p.kind, content = xmltree.DocumentNode, n.Content
	}
	if content != nil {
		p.content = []part{{expr: cp.compile(content)}}
	}
	return p.eval
}

// eval resolves the name, charges the node, evaluates the attribute values,
// then evaluates every content entry into a window on the value stack and
// only then lands them, so an evaluation error in a later entry beats an
// XQTY0024 raised by an earlier one.
func (p *containerPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	name, err := constructorName(c, p.name, p.nameExpr, p.pos)
	if err != nil {
		return nil, err
	}
	if err := c.chargeNodes(1); err != nil {
		return nil, errAt(err, p.pos)
	}
	b := contentBuilder{c: c, pos: p.pos, rule: attrsFold}
	if p.kind == xmltree.DocumentNode {
		b.rule = attrsRefused
	}
	for _, ap := range p.attrs {
		val, err := joinParts(c, ap.parts)
		if err != nil {
			return nil, err
		}
		if err := c.chargeNodes(1); err != nil {
			return nil, errAt(err, p.pos)
		}
		if err := c.ChargeBytes(len(val)); err != nil {
			return nil, errAt(err, p.pos)
		}
		b.addAttr(xmltree.NewAttr(ap.name, val))
	}
	w, base := c.push(len(p.content))
	err = p.land(c, &b, w)
	c.pop(w, base)
	if err != nil {
		return nil, err
	}
	var n *xmltree.Node
	if p.kind == xmltree.DocumentNode {
		n = xmltree.NewDocument()
	} else {
		n = xmltree.NewElement(name)
	}
	n.SetContent(b.attrs(), b.nodes())
	return xdm.Singleton(xdm.NewNode(n)), nil
}

// land evaluates the content entries into w, then lands them through b.
func (p *containerPlan) land(c *evalCtx, b *contentBuilder, w []xdm.Sequence) (err error) {
	for i, entry := range p.content {
		if entry.expr != nil {
			if w[i], err = entry.expr(c); err != nil {
				return err
			}
		}
	}
	for i, entry := range p.content {
		if entry.expr == nil {
			err = b.text(entry.text)
		} else {
			err = b.seq(w[i])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// joinParts concatenates the literal and enclosed parts of a direct
// attribute value; each enclosed expression's sequence is atomized and
// space-joined (attribute value template semantics).
func joinParts(c *evalCtx, parts []part) (string, error) {
	var b strings.Builder
	for _, part := range parts {
		if part.expr == nil {
			b.WriteString(part.text)
			continue
		}
		v, err := part.expr(c)
		if err != nil {
			return "", err
		}
		b.WriteString(xdm.Atomize(v).StringJoin())
	}
	return b.String(), nil
}

// leafPlan is the plan of the computed attribute, text, comment and PI
// constructors and of direct comments and PIs.
type leafPlan struct {
	kind     xmltree.NodeKind
	name     string       // the attribute name or PI target
	nameExpr compiledExpr // a computed attribute name; nil when static
	content  compiledExpr // nil when data is the string, as in a direct comment or PI
	data     string
	pos      ast.Pos
}

func (cp *compiler) compileLeaf(e ast.Expr) compiledExpr {
	p := &leafPlan{pos: e.Pos()}
	var content ast.Expr
	switch n := e.(type) {
	case *ast.CompAttr:
		p.kind, p.name, p.nameExpr, content = xmltree.AttributeNode, n.Name, cp.compileOptional(n.NameExpr, nil), n.Content
	case *ast.CompText:
		p.kind, content = xmltree.TextNode, n.Content
	case *ast.CompComment:
		p.kind, content = xmltree.CommentNode, n.Content
	case *ast.CompPI:
		p.kind, p.name, content = xmltree.PINode, n.Target, n.Content
	case *ast.DirComment:
		p.kind, p.data = xmltree.CommentNode, n.Data
		return p.eval
	case *ast.DirPI:
		p.kind, p.name, p.data = xmltree.PINode, n.Target, n.Data
		return p.eval
	}
	p.content = cp.compileOptional(content, constExpr(xdm.Empty))
	return p.eval
}

// eval resolves the name, evaluates the content to one string (atomized and
// space-joined), charges one node and the string's bytes, and builds the
// node. text {()} constructs nothing.
func (p *leafPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	name, err := constructorName(c, p.name, p.nameExpr, p.pos)
	if err != nil {
		return nil, err
	}
	data := p.data
	if p.content != nil {
		v, err := p.content(c)
		if err != nil || (v.IsEmpty() && p.kind == xmltree.TextNode) {
			return xdm.Empty, err
		}
		data = xdm.Atomize(v).StringJoin()
	}
	if err := c.chargeNodes(1); err != nil {
		return nil, errAt(err, p.pos)
	}
	if err := c.ChargeBytes(len(data)); err != nil {
		return nil, errAt(err, p.pos)
	}
	return xdm.Singleton(xdm.NewNode(&xmltree.Node{Kind: p.kind, Name: name, Data: data})), nil
}

// compileOptional compiles an optional part of a constructor: a computed
// name (absent: nil, the name is static) or a leaf's content (absent: the
// empty sequence).
func (cp *compiler) compileOptional(e ast.Expr, absent compiledExpr) compiledExpr {
	if e == nil {
		return absent
	}
	return cp.compile(e)
}

// constructorName resolves a constructor's name: the static name when
// nameExpr is nil, otherwise the evaluated name expression, which must be
// an XML name (xmltree.IsName) once trimmed.
func constructorName(c *evalCtx, static string, nameExpr compiledExpr, pos ast.Pos) (string, error) {
	if nameExpr == nil {
		return static, nil
	}
	v, err := nameExpr(c)
	if err != nil {
		return "", err
	}
	it, err := xdm.Atomize(v).One()
	if err != nil {
		return "", errAt(err, pos)
	}
	name := strings.TrimSpace(it.StringValue())
	if !xmltree.IsName(name) {
		return "", &Error{Code: "XQDY0074", Pos: pos, Msg: fmt.Sprintf("invalid computed name %q", name)}
	}
	return name, nil
}

// attrRule is what an attribute node in content means to a contentBuilder.
type attrRule uint8

const (
	attrsFold    attrRule = iota // element: a leading one folds by the policy, a later one is XQTY0024
	attrsRefused                 // document: XPTY0004
	attrsLeading                 // update content: a leading one lands, a later one is XUTY0004
	attrsNone                    // update content whose target takes none: XUTY0004
)

// contentBuilder is the element-content rule, written once: within one
// enclosed expression runs of adjacent atomics space-join into one text
// node; adjacent text merges and empty text vanishes; nodes are deep-copied,
// document nodes spliced as their children; attribute nodes are legal only
// before any other content. Element constructors, the document constructor
// and update content all land content in its one list, attributes first
// (no attribute lands after other content); they differ only in what an
// attribute node means (rule).
type contentBuilder struct {
	c          *evalCtx
	pos        ast.Pos
	rule       attrRule
	list       []*xmltree.Node // the first nattr are attributes
	nattr      int
	sawContent bool // any non-attribute content so far
}

// attrs and nodes split the landed list; nodes directly follows attrs.
func (b *contentBuilder) attrs() []*xmltree.Node { return b.list[:b.nattr] }
func (b *contentBuilder) nodes() []*xmltree.Node { return b.list[b.nattr:] }

// addAttr lands an attribute, which must precede every other node.
func (b *contentBuilder) addAttr(a *xmltree.Node) {
	b.list = append(b.list, a)
	b.nattr++
}

// text lands a text run, merged into the last landed node if that is text.
func (b *contentBuilder) text(s string) error {
	b.sawContent = true
	if s == "" {
		return nil
	}
	if err := b.c.ChargeBytes(len(s)); err != nil {
		return errAt(err, b.pos)
	}
	if n := len(b.list); n > b.nattr && b.list[n-1].Kind == xmltree.TextNode {
		b.list[n-1].Data += s
		return nil
	}
	if err := b.c.chargeNodes(1); err != nil {
		return errAt(err, b.pos)
	}
	b.list = append(b.list, xmltree.NewText(s))
	return nil
}

// copy lands a deep copy of a content node (lazily — Clone shares
// subtrees). When the evaluation counts nodes, the clone's full node count
// is charged first; otherwise the subtree is not walked.
func (b *contentBuilder) copy(node *xmltree.Node) error {
	b.sawContent = true
	if b.c.bud != nil {
		if err := b.c.chargeNodes(xmltree.CountNodes(node)); err != nil {
			return errAt(err, b.pos)
		}
	}
	b.list = append(b.list, node.Clone())
	return nil
}

// seq lands the value of one enclosed expression.
func (b *contentBuilder) seq(v xdm.Sequence) error {
	var atomics []string // the current run of adjacent atomics
	for _, it := range v {
		node, isNode := xdm.IsNode(it)
		if !isNode {
			atomics = append(atomics, it.StringValue())
			continue
		}
		if len(atomics) > 0 {
			if err := b.text(strings.Join(atomics, " ")); err != nil {
				return err
			}
			atomics = atomics[:0]
		}
		var err error
		switch node.Kind {
		case xmltree.AttributeNode:
			err = b.attribute(node)
		case xmltree.DocumentNode:
			b.sawContent = true
			for _, kid := range node.Children() {
				if err = b.copy(kid); err != nil {
					break
				}
			}
		case xmltree.TextNode:
			err = b.text(node.Data)
		default:
			err = b.copy(node)
		}
		if err != nil {
			return err
		}
	}
	if len(atomics) == 0 {
		return nil
	}
	return b.text(strings.Join(atomics, " "))
}

// attribute lands an attribute node of content by b's rule. In an element
// a duplicate name resolves by the policy: last-wins replaces in place,
// first-wins skips, the Galax bug keeps both ("though Galax did not honor
// this as of the time of writing"), strict raises XQDY0025.
func (b *contentBuilder) attribute(a *xmltree.Node) error {
	switch {
	case b.rule == attrsRefused:
		return &Error{Code: "XPTY0004", Pos: b.pos, Msg: "attribute node in document constructor content"}
	case b.rule == attrsFold && b.sawContent:
		return &Error{Code: "XQTY0024", Pos: b.pos,
			Msg: fmt.Sprintf("attribute %q follows non-attribute content in element constructor", a.Name)}
	case b.rule == attrsNone || (b.rule == attrsLeading && b.sawContent):
		return &Error{Code: "XUTY0004", Pos: b.pos,
			Msg: fmt.Sprintf("attribute %q in illegal update content position", a.Name)}
	}
	if err := b.c.chargeNodes(1); err != nil {
		return errAt(err, b.pos)
	}
	i := -1
	if b.rule == attrsFold {
		i = slices.IndexFunc(b.attrs(), func(x *xmltree.Node) bool { return x.Name == a.Name })
	}
	if i >= 0 {
		switch b.c.opts.DupAttr {
		case DupAttrFirstWins:
			return nil
		case DupAttrError:
			return &Error{Code: "XQDY0025", Pos: b.pos,
				Msg: fmt.Sprintf("duplicate attribute name %q in constructed element", a.Name)}
		case DupAttrGalaxBug: // both kept
		default: // DupAttrLastWins
			b.list[i] = a.Clone()
			return nil
		}
	}
	b.addAttr(a.Clone())
	return nil
}
