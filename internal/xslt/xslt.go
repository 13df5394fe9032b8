// Package xslt implements the XSLT 1.0 subset the paper's pipeline needed —
// "a bit of XSLT sprinkled in at the end": template rules with match
// patterns, apply-templates, value-of, copy-of, for-each, if and choose,
// attribute value templates, and the built-in rules.
//
// It exists for two reasons. First, fidelity: the paper's generator
// produced "a big XML file with all the output streams as children of the
// root element, and a little XSLT program could split them apart"; this
// package runs those little programs (see splitter.go). Second, the "Why
// Not XSLT?" aside: having a real XSLT-lite beside the XQuery engine makes
// the comparison concrete — select and test expressions here ARE XPath,
// evaluated by the same engine, but "variable bindings, nested
// computations, and the like" are template-shaped, not expression-shaped.
package xslt

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/lexer"
	"lopsided/internal/xquery/parser"
)

// XSLNamespacePrefix is how instructions are recognized: elements named
// xsl:NAME. (Prefix-literal matching, consistent with the rest of the
// untyped pipeline.)
const XSLNamespacePrefix = "xsl:"

// Stylesheet is a compiled stylesheet.
type Stylesheet struct {
	templates []*templateRule
}

type templateRule struct {
	pattern  *pattern
	priority float64
	order    int // declaration order; later wins ties
	body     []*xmltree.Node
}

// Compile parses and compiles a stylesheet document.
func Compile(doc *xmltree.Node) (*Stylesheet, error) {
	root := doc
	if root.Kind == xmltree.DocumentNode {
		root = root.DocumentElement()
	}
	if root == nil || root.Name != "xsl:stylesheet" && root.Name != "xsl:transform" {
		return nil, fmt.Errorf("xslt: root element is not xsl:stylesheet")
	}
	sheet := &Stylesheet{}
	for i, c := range root.Children() {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		if c.Name != "xsl:template" {
			return nil, fmt.Errorf("xslt: unsupported top-level element <%s>", c.Name)
		}
		m, ok := c.Attr("match")
		if !ok {
			return nil, fmt.Errorf("xslt: <xsl:template> without match (named templates unsupported)")
		}
		pat, err := parsePattern(m)
		if err != nil {
			return nil, err
		}
		prio := pat.priority
		if p, ok := c.Attr("priority"); ok {
			if _, err := fmt.Sscanf(p, "%g", &prio); err != nil {
				return nil, fmt.Errorf("xslt: bad priority %q", p)
			}
		}
		sheet.templates = append(sheet.templates, &templateRule{
			pattern: pat, priority: prio, order: i, body: c.Children(),
		})
	}
	// Highest priority first; later declaration wins ties.
	sort.SliceStable(sheet.templates, func(i, j int) bool {
		a, b := sheet.templates[i], sheet.templates[j]
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		return a.order > b.order
	})
	return sheet, nil
}

// CompileString parses stylesheet source text.
func CompileString(src string) (*Stylesheet, error) {
	doc, err := xmltree.ParseWith(src, xmltree.ParseOptions{TrimWhitespace: true})
	if err != nil {
		return nil, fmt.Errorf("xslt: %w", err)
	}
	return Compile(doc)
}

// Transform applies the stylesheet to a source document and returns the
// result document.
func (s *Stylesheet) Transform(source *xmltree.Node) (*xmltree.Node, error) {
	x := &executor{sheet: s, exprs: map[string]*interp.Program{}}
	out := xmltree.NewDocument()
	if err := x.applyTemplates([]*xmltree.Node{source}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// executor carries per-transform state.
type executor struct {
	sheet *Stylesheet
	exprs map[string]*interp.Program
	depth int
}

// xpath compiles (with caching, and without the optimizer) and evaluates an
// XPath expression with the given context node — the same engine XQuery
// uses.
func (x *executor) xpath(expr string, ctx *xmltree.Node) (xdm.Sequence, error) {
	p, ok := x.exprs[expr]
	if !ok {
		mod, err := parser.Parse(expr)
		if err == nil {
			p, err = interp.NewProgramWithShapes(mod, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("xslt: bad expression %q: %w", expr, err)
		}
		x.exprs[expr] = p
	}
	return p.Eval(context.TODO(), xdm.NewNode(ctx), nil, interp.Options{})
}

func (x *executor) xpathNodes(expr string, ctx *xmltree.Node) ([]*xmltree.Node, error) {
	out, err := x.xpath(expr, ctx)
	if err != nil {
		return nil, err
	}
	nodes, err := out.Nodes()
	if err != nil {
		return nil, fmt.Errorf("xslt: select %q produced non-nodes: %w", expr, err)
	}
	return nodes, nil
}

// applyTemplates processes nodes in order, appending output to parent.
func (x *executor) applyTemplates(nodes []*xmltree.Node, parent *xmltree.Node) error {
	x.depth++
	defer func() { x.depth-- }()
	if x.depth > 512 {
		return fmt.Errorf("xslt: template recursion too deep (cyclic rules?)")
	}
	for _, n := range nodes {
		rule := x.sheet.match(n)
		if rule == nil {
			if err := x.builtinRule(n, parent); err != nil {
				return err
			}
			continue
		}
		if err := x.instantiate(rule.body, n, parent); err != nil {
			return err
		}
	}
	return nil
}

// match finds the best template rule for a node, or nil.
func (s *Stylesheet) match(n *xmltree.Node) *templateRule {
	for _, t := range s.templates {
		if t.pattern.matches(n) {
			return t
		}
	}
	return nil
}

// builtinRule implements XSLT's built-in template rules: recurse through
// documents and elements, copy text and attribute values, drop comments
// and processing instructions.
func (x *executor) builtinRule(n *xmltree.Node, parent *xmltree.Node) error {
	switch n.Kind {
	case xmltree.DocumentNode, xmltree.ElementNode:
		return x.applyTemplates(n.Children(), parent)
	case xmltree.TextNode:
		parent.AppendChild(xmltree.NewText(n.Data))
	case xmltree.AttributeNode:
		parent.AppendChild(xmltree.NewText(n.Data))
	}
	return nil
}

// instantiate runs a sequence of instruction/literal nodes.
func (x *executor) instantiate(body []*xmltree.Node, ctx *xmltree.Node, parent *xmltree.Node) error {
	for _, item := range body {
		switch item.Kind {
		case xmltree.TextNode:
			parent.AppendChild(xmltree.NewText(item.Data))
		case xmltree.CommentNode:
			// Stylesheet comments are not copied to output.
		case xmltree.ElementNode:
			if strings.HasPrefix(item.Name, XSLNamespacePrefix) {
				if err := x.instruction(item, ctx, parent); err != nil {
					return err
				}
				continue
			}
			if err := x.literalElement(item, ctx, parent); err != nil {
				return err
			}
		}
	}
	return nil
}

// literalElement copies a literal result element, expanding attribute value
// templates ({expr}) and instantiating children.
func (x *executor) literalElement(item *xmltree.Node, ctx *xmltree.Node, parent *xmltree.Node) error {
	el := xmltree.NewElement(item.Name)
	for _, a := range item.Attrs() {
		v, err := x.avt(a.Data, ctx)
		if err != nil {
			return err
		}
		el.SetAttr(a.Name, v)
	}
	parent.AppendChild(el)
	return x.instantiate(item.Children(), ctx, el)
}

// name evaluates the name attribute of instruction item (xsl:element or
// xsl:attribute), which must come out an XML name.
func (x *executor) name(item *xmltree.Node, avt string, ctx *xmltree.Node) (string, error) {
	n, err := x.avt(avt, ctx)
	if err == nil && !xmltree.IsName(n) {
		err = fmt.Errorf("xslt: %s name %q is not an XML name", item.Name, n)
	}
	return n, err
}

// avt expands an attribute value template: {expr} substitutes the
// expression's string value; {{ and }} escape literal braces.
func (x *executor) avt(s string, ctx *xmltree.Node) (string, error) {
	if !strings.ContainsAny(s, "{}") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		switch {
		case strings.HasPrefix(s[i:], "{{"):
			b.WriteByte('{')
			i += 2
		case strings.HasPrefix(s[i:], "}}"):
			b.WriteByte('}')
			i += 2
		case s[i] == '{':
			end, err := exprEnd(s[i+1:])
			if err != nil {
				return "", fmt.Errorf("xslt: attribute value template %q: %w", s, err)
			}
			if end < 0 {
				return "", fmt.Errorf("xslt: unterminated { in attribute value template %q", s)
			}
			out, err := x.xpath(s[i+1:i+1+end], ctx)
			if err != nil {
				return "", err
			}
			if len(out) > 0 {
				b.WriteString(out[0].StringValue())
			}
			i += end + 2
		case s[i] == '}':
			return "", fmt.Errorf("xslt: unescaped } in attribute value template %q", s)
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return b.String(), nil
}

// exprEnd returns the offset of the '}' that ends the expression at the
// start of s, or -1: the first '}' token the XQuery lexer returns at brace
// depth 0, so a brace inside a string literal or a nested {} does not end it.
func exprEnd(s string) (int, error) {
	lx, depth := lexer.New(s), 0
	for {
		tok, err := lx.Next()
		switch {
		case err != nil:
			return -1, err
		case tok.Kind == lexer.EOF:
			return -1, nil
		case tok.Kind == lexer.LBRACE:
			depth++
		case tok.Kind == lexer.RBRACE && depth == 0:
			return tok.Offset, nil
		case tok.Kind == lexer.RBRACE:
			depth--
		}
	}
}

// instruction dispatches one xsl:* instruction.
func (x *executor) instruction(item *xmltree.Node, ctx *xmltree.Node, parent *xmltree.Node) error {
	switch item.Name {
	case "xsl:apply-templates":
		nodes := append([]*xmltree.Node(nil), ctx.Children()...)
		if sel, ok := item.Attr("select"); ok {
			var err error
			nodes, err = x.xpathNodes(sel, ctx)
			if err != nil {
				return err
			}
		}
		return x.applyTemplates(nodes, parent)
	case "xsl:value-of":
		sel, ok := item.Attr("select")
		if !ok {
			return fmt.Errorf("xslt: xsl:value-of needs select")
		}
		out, err := x.xpath(sel, ctx)
		if err != nil {
			return err
		}
		if len(out) > 0 {
			parent.AppendChild(xmltree.NewText(out[0].StringValue()))
		}
		return nil
	case "xsl:copy-of":
		sel, ok := item.Attr("select")
		if !ok {
			return fmt.Errorf("xslt: xsl:copy-of needs select")
		}
		out, err := x.xpath(sel, ctx)
		if err != nil {
			return err
		}
		for _, it := range out {
			if n, isNode := xdm.IsNode(it); isNode {
				switch n.Kind {
				case xmltree.DocumentNode:
					for _, c := range n.Children() {
						parent.AppendChild(c.Clone())
					}
				case xmltree.AttributeNode:
					if parent.Kind == xmltree.ElementNode {
						parent.AttachAttr(n.Clone())
					}
				default:
					parent.AppendChild(n.Clone())
				}
			} else {
				parent.AppendChild(xmltree.NewText(it.StringValue()))
			}
		}
		return nil
	case "xsl:copy":
		switch ctx.Kind {
		case xmltree.ElementNode:
			el := xmltree.NewElement(ctx.Name)
			parent.AppendChild(el)
			return x.instantiate(item.Children(), ctx, el)
		case xmltree.TextNode:
			parent.AppendChild(xmltree.NewText(ctx.Data))
		case xmltree.DocumentNode:
			return x.instantiate(item.Children(), ctx, parent)
		case xmltree.AttributeNode:
			if parent.Kind == xmltree.ElementNode {
				parent.SetAttr(ctx.Name, ctx.Data)
			}
		case xmltree.CommentNode:
			parent.AppendChild(xmltree.NewComment(ctx.Data))
		case xmltree.PINode:
			parent.AppendChild(xmltree.NewPI(ctx.Name, ctx.Data))
		}
		return nil
	case "xsl:for-each":
		sel, ok := item.Attr("select")
		if !ok {
			return fmt.Errorf("xslt: xsl:for-each needs select")
		}
		nodes, err := x.xpathNodes(sel, ctx)
		if err != nil {
			return err
		}
		for _, n := range nodes {
			if err := x.instantiate(item.Children(), n, parent); err != nil {
				return err
			}
		}
		return nil
	case "xsl:if":
		test, ok := item.Attr("test")
		if !ok {
			return fmt.Errorf("xslt: xsl:if needs test")
		}
		out, err := x.xpath(test, ctx)
		if err != nil {
			return err
		}
		hold, err := xdm.EffectiveBool(out)
		if err != nil {
			return err
		}
		if hold {
			return x.instantiate(item.Children(), ctx, parent)
		}
		return nil
	case "xsl:choose":
		for _, c := range item.Children() {
			if c.Kind != xmltree.ElementNode {
				continue
			}
			switch c.Name {
			case "xsl:when":
				test, ok := c.Attr("test")
				if !ok {
					return fmt.Errorf("xslt: xsl:when needs test")
				}
				out, err := x.xpath(test, ctx)
				if err != nil {
					return err
				}
				hold, err := xdm.EffectiveBool(out)
				if err != nil {
					return err
				}
				if hold {
					return x.instantiate(c.Children(), ctx, parent)
				}
			case "xsl:otherwise":
				return x.instantiate(c.Children(), ctx, parent)
			default:
				return fmt.Errorf("xslt: unexpected <%s> in xsl:choose", c.Name)
			}
		}
		return nil
	case "xsl:element":
		name, ok := item.Attr("name")
		if !ok {
			return fmt.Errorf("xslt: xsl:element needs name")
		}
		n, err := x.name(item, name, ctx)
		if err != nil {
			return err
		}
		el := xmltree.NewElement(n)
		parent.AppendChild(el)
		return x.instantiate(item.Children(), ctx, el)
	case "xsl:attribute":
		name, ok := item.Attr("name")
		if !ok {
			return fmt.Errorf("xslt: xsl:attribute needs name")
		}
		n, err := x.name(item, name, ctx)
		if err != nil {
			return err
		}
		// Value is the instantiated content's text.
		tmp := xmltree.NewElement("tmp")
		if err := x.instantiate(item.Children(), ctx, tmp); err != nil {
			return err
		}
		if parent.Kind != xmltree.ElementNode {
			return fmt.Errorf("xslt: xsl:attribute outside an element")
		}
		parent.SetAttr(n, tmp.StringValue())
		return nil
	case "xsl:text":
		parent.AppendChild(xmltree.NewText(item.StringValue()))
		return nil
	}
	return fmt.Errorf("xslt: unsupported instruction <%s>", item.Name)
}
