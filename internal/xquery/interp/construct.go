package interp

import (
	"fmt"
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
// Constructors compile into plans: literal text runs, attribute-value
// templates, and boundary-whitespace stripping decisions are resolved at
// compile time; only enclosed expressions remain as compiled closures.

// attrPart is one run of a direct attribute value: literal text (expr nil)
// or an enclosed expression.
type attrPart struct {
	static string
	expr   compiledExpr
}

type dirAttrPlan struct {
	name  string
	parts []attrPart
}

// contentEntry is one entry of a direct element's content list: a literal
// text run that survived boundary-whitespace stripping, or an enclosed
// expression / nested constructor.
type contentEntry struct {
	isText bool
	text   string
	expr   compiledExpr
}

type dirElemPlan struct {
	name    string
	attrs   []dirAttrPlan
	content []contentEntry
	pos     ast.Pos
}

func (cp *compiler) compileDirElem(n *ast.DirElem) compiledExpr {
	p := &dirElemPlan{name: n.Name, pos: n.Pos()}
	for _, attr := range n.Attrs {
		ap := dirAttrPlan{name: attr.Name}
		for _, part := range attr.Parts {
			if lit, ok := part.(*ast.StringLit); ok {
				ap.parts = append(ap.parts, attrPart{static: lit.Value})
				continue
			}
			ap.parts = append(ap.parts, attrPart{expr: cp.compile(part)})
		}
		p.attrs = append(p.attrs, ap)
	}
	preserve := cp.prog.mod.BoundarySpacePreserve
	for i, expr := range n.Content {
		if lit, ok := expr.(*ast.StringLit); ok && i < len(n.LiteralText) {
			text := lit.Value
			if n.LiteralText[i] && !preserve && strings.TrimSpace(text) == "" {
				continue // boundary whitespace stripped (draft default)
			}
			p.content = append(p.content, contentEntry{isText: true, text: text})
			continue
		}
		p.content = append(p.content, contentEntry{expr: cp.compile(expr)})
	}
	return p.eval
}

func (p *dirElemPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	el := xmltree.NewElement(p.name)
	if err := c.chargeNodes(1); err != nil {
		return nil, errAt(err, p.pos)
	}
	for i := range p.attrs {
		ap := &p.attrs[i]
		val, err := ap.value(c)
		if err != nil {
			return nil, err
		}
		if err := c.chargeNodes(1); err != nil {
			return nil, errAt(err, p.pos)
		}
		if err := c.chargeBytes(len(val)); err != nil {
			return nil, errAt(err, p.pos)
		}
		el.SetAttr(ap.name, val)
	}
	items, err := p.contentItems(c)
	if err != nil {
		return nil, err
	}
	b := contentBuilder{c: c, pos: p.pos, into: el}
	for _, item := range items {
		if item.isSeq {
			err = b.seq(item.seq)
		} else {
			err = b.text(item.text)
			b.sawContent = true
		}
		if err != nil {
			return nil, err
		}
	}
	return xdm.Singleton(xdm.NewNode(el)), nil
}

// value concatenates the literal and enclosed parts of a direct attribute
// value; each enclosed expression's sequence is atomized and space-joined
// (attribute value template semantics).
func (ap *dirAttrPlan) value(c *evalCtx) (string, error) {
	var b strings.Builder
	for i := range ap.parts {
		part := &ap.parts[i]
		if part.expr == nil {
			b.WriteString(part.static)
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

// contentItem is one element of the content sequence: either a text run or
// an evaluated sequence from an enclosed expression / nested constructor.
type contentItem struct {
	text  string
	isSeq bool
	seq   xdm.Sequence
}

// contentItems evaluates the plan's content list.
func (p *dirElemPlan) contentItems(c *evalCtx) ([]contentItem, error) {
	var items []contentItem
	for i := range p.content {
		entry := &p.content[i]
		if entry.isText {
			items = append(items, contentItem{text: entry.text})
			continue
		}
		v, err := entry.expr(c)
		if err != nil {
			return nil, err
		}
		items = append(items, contentItem{isSeq: true, seq: v})
	}
	return items, nil
}

// contentBuilder is the element-content rule, written once: within one
// enclosed expression runs of adjacent atomics space-join into one text
// node; adjacent text merges and empty text vanishes; nodes are deep-copied,
// document nodes spliced as their children; attribute nodes are legal only
// before any other content. Its three users differ in where content lands
// and in what an attribute node means there (see attribute): an element
// constructor builds into an element, the document constructor into a
// document node, update content into the parentless nodes and attrs.
type contentBuilder struct {
	c            *evalCtx
	pos          ast.Pos
	into         *xmltree.Node   // the node under construction; nil for update content
	nodes, attrs []*xmltree.Node // update content
	allowAttrs   bool            // update content: the target can take attributes
	sawContent   bool            // any non-attribute content so far
}

func (b *contentBuilder) add(n *xmltree.Node) {
	if b.into != nil {
		b.into.AppendChild(n)
	} else {
		b.nodes = append(b.nodes, n)
	}
}

func (b *contentBuilder) text(s string) error {
	if s == "" {
		return nil
	}
	if err := b.c.chargeBytes(len(s)); err != nil {
		return errAt(err, b.pos)
	}
	built := b.nodes
	if b.into != nil {
		built = b.into.Children()
	}
	if len(built) > 0 && built[len(built)-1].Kind == xmltree.TextNode {
		built[len(built)-1].Data += s
		return nil
	}
	if err := b.c.chargeNodes(1); err != nil {
		return errAt(err, b.pos)
	}
	b.add(xmltree.NewText(s))
	return nil
}

// copy deep-copies a content node (lazily — Clone shares subtrees), charging
// the clone's full node count against the budget before the copy is made.
func (b *contentBuilder) copy(node *xmltree.Node) error {
	if err := b.c.chargeNodes(xmltree.CountNodes(node)); err != nil {
		return errAt(err, b.pos)
	}
	b.add(node.Clone())
	return nil
}

// seq adds the value of one enclosed expression.
func (b *contentBuilder) seq(v xdm.Sequence) error {
	var atomics []string
	flush := func() error {
		if len(atomics) == 0 {
			return nil
		}
		joined := strings.Join(atomics, " ")
		atomics = atomics[:0]
		b.sawContent = true
		return b.text(joined)
	}
	for _, it := range v {
		node, isNode := xdm.IsNode(it)
		if !isNode {
			atomics = append(atomics, it.StringValue())
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		var err error
		switch node.Kind {
		case xmltree.AttributeNode:
			if err := b.attribute(node); err != nil {
				return err
			}
			continue
		case xmltree.DocumentNode:
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
		b.sawContent = true
	}
	return flush()
}

// attribute handles an attribute node in content. In an element constructor
// a leading one folds into the element's attributes per the duplicate
// policy, and one after other content is XQTY0024 (the paper: "if the
// attribute value is in the wrong position (after a non-attribute), it will
// cause an error"); a document node takes none (XPTY0004); update content
// collects the leading ones when the target can take them and otherwise
// raises XUTY0004.
func (b *contentBuilder) attribute(a *xmltree.Node) error {
	switch {
	case b.into == nil:
		if !b.allowAttrs || b.sawContent {
			return &Error{Code: "XUTY0004", Pos: b.pos,
				Msg: fmt.Sprintf("attribute %q in illegal update content position", a.Name)}
		}
		if err := b.c.chargeNodes(1); err != nil {
			return errAt(err, b.pos)
		}
		b.attrs = append(b.attrs, a.Clone())
		return nil
	case b.into.Kind == xmltree.DocumentNode:
		return &Error{Code: "XPTY0004", Pos: b.pos, Msg: "attribute node in document constructor content"}
	case b.sawContent:
		return &Error{Code: "XQTY0024", Pos: b.pos,
			Msg: fmt.Sprintf("attribute %q follows non-attribute content in element constructor", a.Name)}
	}
	return b.c.foldAttribute(b.into, a, b.pos)
}

// foldAttribute attaches a computed attribute node to el, resolving
// duplicates per the configured policy.
func (c *evalCtx) foldAttribute(el *xmltree.Node, attr *xmltree.Node, pos ast.Pos) error {
	if err := c.chargeNodes(1); err != nil {
		return errAt(err, pos)
	}
	copied := attr.Clone()
	for i, existing := range el.Attrs() {
		if existing.Name != copied.Name {
			continue
		}
		switch c.ip.opts.DupAttr {
		case DupAttrLastWins:
			el.ReplaceAttrAt(i, copied)
			return nil
		case DupAttrFirstWins:
			return nil
		case DupAttrGalaxBug:
			// Keep both — reproducing the bug the paper observed:
			// "though Galax did not honor this as of the time of writing".
			el.AttachAttrDup(copied)
			return nil
		case DupAttrError:
			return &Error{Code: "XQDY0025", Pos: pos,
				Msg: fmt.Sprintf("duplicate attribute name %q in constructed element", copied.Name)}
		}
	}
	el.AttachAttr(copied)
	return nil
}

// ---- Computed constructors ----

// constructorName resolves a computed constructor's name: the static name
// when present, otherwise the compiled name expression.
func constructorName(c *evalCtx, static string, nameExpr compiledExpr, pos ast.Pos) (string, error) {
	if static != "" {
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
	if name == "" || strings.ContainsAny(name, " \t\r\n<>&\"'") {
		return "", &Error{Code: "XQDY0074", Pos: pos, Msg: fmt.Sprintf("invalid computed name %q", name)}
	}
	return name, nil
}

// compileOptional compiles an optional part of a computed constructor: a
// dynamic name (nil when the name is static) or the content (absent content
// is the empty sequence).
func (cp *compiler) compileOptional(e ast.Expr, absent compiledExpr) compiledExpr {
	if e == nil {
		return absent
	}
	return cp.compile(e)
}

func (cp *compiler) compileCompElem(n *ast.CompElem) compiledExpr {
	nameExpr := cp.compileOptional(n.NameExpr, nil)
	content := cp.compileOptional(n.Content, constExpr(xdm.Empty))
	static, pos := n.Name, n.Pos()
	return func(c *evalCtx) (xdm.Sequence, error) {
		name, err := constructorName(c, static, nameExpr, pos)
		if err != nil {
			return nil, err
		}
		el := xmltree.NewElement(name)
		if err := c.chargeNodes(1); err != nil {
			return nil, errAt(err, pos)
		}
		v, err := content(c)
		if err != nil {
			return nil, err
		}
		b := contentBuilder{c: c, pos: pos, into: el}
		if err := b.seq(v); err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewNode(el)), nil
	}
}

// stringNode finishes the attribute, text, comment and PI constructors, whose
// content is one string: v atomized and space-joined, charged as one node
// and its bytes, and wrapped by mk.
func (c *evalCtx) stringNode(v xdm.Sequence, pos ast.Pos, mk func(data string) *xmltree.Node) (xdm.Sequence, error) {
	data := xdm.Atomize(v).StringJoin()
	if err := c.chargeNodes(1); err != nil {
		return nil, errAt(err, pos)
	}
	if err := c.chargeBytes(len(data)); err != nil {
		return nil, errAt(err, pos)
	}
	return xdm.Singleton(xdm.NewNode(mk(data))), nil
}

func (cp *compiler) compileCompAttr(n *ast.CompAttr) compiledExpr {
	nameExpr := cp.compileOptional(n.NameExpr, nil)
	content := cp.compileOptional(n.Content, constExpr(xdm.Empty))
	static, pos := n.Name, n.Pos()
	return func(c *evalCtx) (xdm.Sequence, error) {
		name, err := constructorName(c, static, nameExpr, pos)
		if err != nil {
			return nil, err
		}
		v, err := content(c)
		if err != nil {
			return nil, err
		}
		return c.stringNode(v, pos, func(val string) *xmltree.Node { return xmltree.NewAttr(name, val) })
	}
}

func (cp *compiler) compileCompText(n *ast.CompText) compiledExpr {
	content := cp.compileOptional(n.Content, constExpr(xdm.Empty))
	pos := n.Pos()
	return func(c *evalCtx) (xdm.Sequence, error) {
		v, err := content(c)
		if err != nil || v.IsEmpty() { // text {()} constructs nothing
			return xdm.Empty, err
		}
		return c.stringNode(v, pos, xmltree.NewText)
	}
}

func (cp *compiler) compileCompComment(n *ast.CompComment) compiledExpr {
	content := cp.compileOptional(n.Content, constExpr(xdm.Empty))
	pos := n.Pos()
	return func(c *evalCtx) (xdm.Sequence, error) {
		v, err := content(c)
		if err != nil {
			return nil, err
		}
		return c.stringNode(v, pos, xmltree.NewComment)
	}
}

func (cp *compiler) compileCompPI(n *ast.CompPI) compiledExpr {
	content := cp.compileOptional(n.Content, constExpr(xdm.Empty))
	target, pos := n.Target, n.Pos()
	return func(c *evalCtx) (xdm.Sequence, error) {
		v, err := content(c)
		if err != nil {
			return nil, err
		}
		return c.stringNode(v, pos, func(data string) *xmltree.Node { return xmltree.NewPI(target, data) })
	}
}

func (cp *compiler) compileCompDoc(n *ast.CompDoc) compiledExpr {
	content := cp.compileOptional(n.Content, constExpr(xdm.Empty))
	pos := n.Pos()
	return func(c *evalCtx) (xdm.Sequence, error) {
		doc := xmltree.NewDocument()
		if err := c.chargeNodes(1); err != nil {
			return nil, errAt(err, pos)
		}
		v, err := content(c)
		if err != nil {
			return nil, err
		}
		b := contentBuilder{c: c, pos: pos, into: doc}
		if err := b.seq(v); err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewNode(doc)), nil
	}
}
