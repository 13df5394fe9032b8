package parser

import (
	"fmt"
	"strings"

	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/lexer"
)

// computedConstructorNames can begin computed constructors.
var computedConstructorNames = map[string]bool{
	"element": true, "attribute": true, "text": true, "comment": true,
	"document": true, "processing-instruction": true,
}

// startsComputedConstructor reports whether the current token begins a
// computed constructor: `element {`, `element name {`, `text {`, etc.
func (p *Parser) startsComputedConstructor() bool {
	if p.tok.Kind != lexer.NAME || !computedConstructorNames[p.tok.Text] {
		return false
	}
	nxt := p.peek(1)
	if nxt.Kind == lexer.LBRACE {
		return true
	}
	switch p.tok.Text {
	case "element", "attribute", "processing-instruction":
		return nxt.Kind == lexer.NAME && p.peek(2).Kind == lexer.LBRACE
	}
	return false
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	b := p.at()
	switch p.tok.Kind {
	case lexer.STRING:
		v := p.tok.Text
		return &ast.StringLit{Base: b, Value: v}, p.next()
	case lexer.INTEGER, lexer.DECIMAL, lexer.DOUBLE:
		i, f, err := lexer.ParseNumber(p.tok)
		if err != nil {
			return nil, p.errf("bad %s %q", p.tok.Kind, p.tok.Text)
		}
		switch p.tok.Kind {
		case lexer.INTEGER:
			return &ast.IntLit{Base: b, Value: i}, p.next()
		case lexer.DECIMAL:
			return &ast.DecimalLit{Base: b, Value: f}, p.next()
		}
		return &ast.DoubleLit{Base: b, Value: f}, p.next()
	case lexer.VAR:
		name := p.tok.Text
		return &ast.VarRef{Base: b, Name: name}, p.next()
	case lexer.DOT:
		return &ast.ContextItem{Base: b}, p.next()
	case lexer.LPAREN:
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == lexer.RPAREN {
			return &ast.EmptySeq{Base: b}, p.next()
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(lexer.RPAREN)
	case lexer.LT:
		return p.parseDirConstructor()
	case lexer.NAME:
		if p.startsComputedConstructor() {
			return p.parseComputedConstructor()
		}
		if p.isName("ordered") || p.isName("unordered") {
			if p.peek(1).Kind == lexer.LBRACE {
				if err := p.next(); err != nil {
					return nil, err
				}
				if err := p.expect(lexer.LBRACE); err != nil {
					return nil, err
				}
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				return e, p.expect(lexer.RBRACE)
			}
		}
		if p.peek(1).Kind == lexer.LPAREN {
			if reservedFuncNames[p.tok.Text] || kindTestNames[p.tok.Text] {
				return nil, p.errf("%q cannot be used as a function name", p.tok.Text)
			}
			return p.parseFunctionCall()
		}
	}
	return nil, p.errf("unexpected %s %q in expression", p.tok.Kind, p.tok.Text)
}

func (p *Parser) parseFunctionCall() (ast.Expr, error) {
	b := p.at()
	name := p.tok.Text
	if err := p.next(); err != nil {
		return nil, err
	}
	if err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	call := &ast.FunctionCall{Base: b, Name: name}
	for p.tok.Kind != lexer.RPAREN {
		arg, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		if p.tok.Kind == lexer.COMMA {
			if err := p.next(); err != nil {
				return nil, err
			}
		} else if p.tok.Kind != lexer.RPAREN {
			return nil, p.errf("expected ',' or ')' in argument list")
		}
	}
	return call, p.next()
}

// ---- Computed constructors ----

func (p *Parser) parseComputedConstructor() (ast.Expr, error) {
	b := p.at()
	kw := p.tok.Text
	if err := p.next(); err != nil {
		return nil, err
	}
	var staticName string
	var nameExpr ast.Expr
	switch kw {
	case "element", "attribute", "processing-instruction":
		if p.tok.Kind == lexer.NAME {
			staticName = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			if err := p.expect(lexer.LBRACE); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(lexer.RBRACE); err != nil {
				return nil, err
			}
			nameExpr = e
		}
	}
	if err := p.expect(lexer.LBRACE); err != nil {
		return nil, err
	}
	var content ast.Expr
	if p.tok.Kind != lexer.RBRACE {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		content = e
	}
	if err := p.expect(lexer.RBRACE); err != nil {
		return nil, err
	}
	switch kw {
	case "element":
		return &ast.CompElem{Base: b, Name: staticName, NameExpr: nameExpr, Content: content}, nil
	case "attribute":
		return &ast.CompAttr{Base: b, Name: staticName, NameExpr: nameExpr, Content: content}, nil
	case "text":
		return &ast.CompText{Base: b, Content: content}, nil
	case "comment":
		return &ast.CompComment{Base: b, Content: content}, nil
	case "document":
		return &ast.CompDoc{Base: b, Content: content}, nil
	case "processing-instruction":
		if staticName == "" {
			return nil, p.errf("processing-instruction constructor requires a static target name")
		}
		return &ast.CompPI{Base: b, Target: staticName, Content: content}, nil
	}
	return nil, p.errf("unknown computed constructor %q", kw)
}

// ---- Direct constructors (raw mode) ----

// parseDirConstructor is entered with the current token being LT. It rewinds
// the lexer to the '<' and scans the constructor in raw character mode.
func (p *Parser) parseDirConstructor() (ast.Expr, error) {
	p.lx.Rewind(p.tok)
	var e ast.Expr
	var err error
	switch {
	case p.lx.HasPrefix("<!--"):
		e, err = p.parseDirCommentRaw()
	case p.lx.HasPrefix("<?"):
		e, err = p.parseDirPIRaw()
	default:
		e, err = p.parseDirElemRaw()
	}
	if err != nil {
		return nil, err
	}
	// Resume token mode after the constructor.
	return e, p.next()
}

func (p *Parser) parseDirCommentRaw() (ast.Expr, error) {
	b := ast.At(p.lx.Pos())
	p.lx.Advance(len("<!--"))
	data, ok := p.lx.ScanUntil("-->")
	if !ok {
		return nil, p.lx.Errf("unterminated comment constructor")
	}
	return &ast.DirComment{Base: b, Data: data}, nil
}

func (p *Parser) parseDirPIRaw() (ast.Expr, error) {
	b := ast.At(p.lx.Pos())
	p.lx.Advance(len("<?"))
	target, err := p.lx.ScanQName()
	if err != nil {
		return nil, err
	}
	data, ok := p.lx.ScanUntil("?>")
	if !ok {
		return nil, p.lx.Errf("unterminated processing-instruction constructor")
	}
	return &ast.DirPI{Base: b, Target: target, Data: strings.TrimLeft(data, " \t\r\n")}, nil
}

// litRun accumulates a literal text run during raw content scanning.
type litRun struct {
	b         strings.Builder
	protected bool // contained an entity or CDATA: never boundary-stripped
}

// parseDirElemRaw parses a direct element constructor with the lexer
// positioned at its '<'.
func (p *Parser) parseDirElemRaw() (ast.Expr, error) {
	// Direct elements nest through parseDirContentRaw without passing
	// through parseExprSingle, so they need their own depth charge.
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	b := ast.At(p.lx.Pos())
	p.lx.Advance(1) // <
	name, err := p.lx.ScanQName()
	if err != nil {
		return nil, err
	}
	el := &ast.DirElem{Base: b, Name: name}
	// Attributes.
	for {
		p.lx.SkipSpace()
		if p.lx.AtEOF() {
			return nil, p.lx.Errf("unterminated start tag <%s", name)
		}
		c := p.lx.PeekAt(0)
		if c == '>' || c == '/' {
			break
		}
		attr, err := p.parseDirAttrRaw()
		if err != nil {
			return nil, err
		}
		// Literal duplicates are a static error (XQST0040), unlike computed
		// duplicates, which the runtime resolves per DupAttrPolicy (XQDY0025
		// under DupAttrError). Keeping the codes distinct mirrors the spec's
		// split and keeps the error surface identical across configurations.
		for _, prev := range el.Attrs {
			if prev.Name == attr.Name {
				return nil, &lexer.Error{Pos: p.lx.Pos(), Code: "XQST0040",
					Msg: fmt.Sprintf("duplicate attribute %q in constructor <%s>", attr.Name, name)}
			}
		}
		el.Attrs = append(el.Attrs, attr)
	}
	if p.lx.PeekAt(0) == '/' {
		p.lx.Advance(1)
		if p.lx.PeekAt(0) != '>' {
			return nil, p.lx.Errf("expected '>' after '/' in constructor")
		}
		p.lx.Advance(1)
		return el, nil
	}
	p.lx.Advance(1) // >
	if err := p.parseDirContentRaw(el, name); err != nil {
		return nil, err
	}
	return el, nil
}

func (p *Parser) parseDirAttrRaw() (ast.DirAttr, error) {
	pos := p.lx.Pos()
	aname, err := p.lx.ScanQName()
	if err != nil {
		return ast.DirAttr{}, err
	}
	attr := ast.DirAttr{Name: aname, P: pos}
	p.lx.SkipSpace()
	if p.lx.PeekAt(0) != '=' {
		return ast.DirAttr{}, p.lx.Errf("expected '=' after attribute name %q", aname)
	}
	p.lx.Advance(1)
	p.lx.SkipSpace()
	quote := p.lx.PeekAt(0)
	if quote != '"' && quote != '\'' {
		return ast.DirAttr{}, p.lx.Errf("expected quoted attribute value")
	}
	p.lx.Advance(1)
	var run strings.Builder
	flush := func() {
		if run.Len() > 0 {
			attr.Parts = append(attr.Parts, &ast.StringLit{Base: ast.At(pos), Value: run.String()})
			run.Reset()
		}
	}
	for {
		if p.lx.AtEOF() {
			return ast.DirAttr{}, p.lx.Errf("unterminated attribute value")
		}
		c := p.lx.PeekAt(0)
		switch {
		case c == quote:
			if p.lx.PeekAt(1) == quote { // doubled delimiter
				run.WriteByte(quote)
				p.lx.Advance(2)
				continue
			}
			p.lx.Advance(1)
			flush()
			return attr, nil
		case c == '{' || c == '}' || c == '&':
			e, err := p.parseRawPart("attribute value", &run, flush)
			if err != nil {
				return ast.DirAttr{}, err
			}
			if e != nil {
				attr.Parts = append(attr.Parts, e)
			}
		case c == '<':
			return ast.DirAttr{}, p.lx.Errf("'<' in attribute value")
		default:
			run.WriteByte(c)
			p.lx.Advance(1)
		}
	}
}

// parseRawPart scans what attribute values and element content spell alike,
// at a read position holding '{', '}' or '&': "{{" and "}}" append a brace to
// text, a reference appends its expansion, a lone '}' is an error naming
// where, and '{' runs flush and returns the enclosed expression. A nil
// expression means text grew.
func (p *Parser) parseRawPart(where string, text *strings.Builder, flush func()) (ast.Expr, error) {
	c := p.lx.PeekAt(0)
	switch {
	case c == '&':
		s, err := p.lx.ScanEntity()
		if err != nil {
			return nil, err
		}
		text.WriteString(s)
		return nil, nil
	case p.lx.PeekAt(1) == c: // "{{" or "}}"
		text.WriteByte(c)
		p.lx.Advance(2)
		return nil, nil
	case c == '}':
		return nil, p.lx.Errf("unescaped '}' in %s", where)
	}
	flush()
	return p.parseEnclosedRaw()
}

// parseEnclosedRaw parses an enclosed expression; the lexer is positioned at
// its '{'. On return the lexer is positioned just after the matching '}'.
// An empty enclosure {} denotes the empty sequence.
func (p *Parser) parseEnclosedRaw() (ast.Expr, error) {
	b := ast.At(p.lx.Pos())
	p.lx.Advance(1) // {
	if err := p.next(); err != nil {
		return nil, err
	}
	if p.tok.Kind == lexer.RBRACE {
		return &ast.EmptySeq{Base: b}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != lexer.RBRACE {
		return nil, p.errf("expected '}' to close enclosed expression, found %s %q", p.tok.Kind, p.tok.Text)
	}
	return e, nil
}

func (p *Parser) parseDirContentRaw(el *ast.DirElem, closeName string) error {
	var run litRun
	flush := func() {
		if run.b.Len() == 0 {
			return
		}
		el.Content = append(el.Content, &ast.StringLit{Base: ast.At(p.lx.Pos()), Value: run.b.String()})
		el.LiteralText = append(el.LiteralText, !run.protected)
		run.b.Reset()
		run.protected = false
	}
	appendExpr := func(e ast.Expr) {
		el.Content = append(el.Content, e)
		el.LiteralText = append(el.LiteralText, false)
	}
	for {
		if p.lx.AtEOF() {
			return p.lx.Errf("unterminated element constructor <%s>", closeName)
		}
		c := p.lx.PeekAt(0)
		switch {
		case p.lx.HasPrefix("</"):
			flush()
			p.lx.Advance(2)
			got, err := p.lx.ScanQName()
			if err != nil {
				return err
			}
			if got != closeName {
				return p.lx.Errf("end tag </%s> does not match <%s>", got, closeName)
			}
			p.lx.SkipSpace()
			if p.lx.PeekAt(0) != '>' {
				return p.lx.Errf("expected '>' in end tag")
			}
			p.lx.Advance(1)
			return nil
		case p.lx.HasPrefix("<!--"):
			flush()
			e, err := p.parseDirCommentRaw()
			if err != nil {
				return err
			}
			appendExpr(e)
		case p.lx.HasPrefix("<![CDATA["):
			p.lx.Advance(len("<![CDATA["))
			data, ok := p.lx.ScanUntil("]]>")
			if !ok {
				return p.lx.Errf("unterminated CDATA section")
			}
			run.b.WriteString(data)
			run.protected = true
		case p.lx.HasPrefix("<?"):
			flush()
			e, err := p.parseDirPIRaw()
			if err != nil {
				return err
			}
			appendExpr(e)
		case c == '<':
			flush()
			e, err := p.parseDirElemRaw()
			if err != nil {
				return err
			}
			appendExpr(e)
		case c == '{' || c == '}' || c == '&':
			e, err := p.parseRawPart("element content", &run.b, flush)
			if err != nil {
				return err
			}
			if e != nil {
				appendExpr(e)
			}
			if c == '&' {
				run.protected = true
			}
		default:
			run.b.WriteByte(c)
			p.lx.Advance(1)
		}
	}
}
