// Package parser implements a recursive-descent parser for the XQuery
// subset: full expression grammar (FLWOR, quantified expressions,
// typeswitch, paths with all major axes, direct and computed constructors)
// plus the main-module prolog (function, variable, namespace and
// boundary-space declarations).
//
// Keywords are context-sensitive, as in XQuery: the lexer emits plain names
// and the parser decides, which is what makes `<x/>/div` an element and
// `$a div $b` a division.
package parser

import (
	"fmt"

	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/lexer"
)

// Parser parses one source string.
type Parser struct {
	lx    *lexer.Lexer
	tok   lexer.Token
	depth int
}

// maxNestingDepth bounds expression nesting. Recursive descent consumes
// goroutine stack per nesting level and a Go stack overflow is not
// recoverable, so deeply nested input (`((((…`) must be rejected as a
// static error before it can crash the process. The limit is far above any
// human-written query.
const maxNestingDepth = 3000

// enter charges one nesting level; the caller must defer p.leave().
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errf("expression nesting exceeds %d levels", maxNestingDepth)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// parseModule parses what a query and an update program share — one lexer,
// the first token, the main-module prolog — and hands over to body for the
// grammar that tells them apart, which must end at end of input.
func parseModule(src string, body func(*Parser, *ast.Module) error) (*ast.Module, error) {
	p := &Parser{lx: lexer.New(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	mod := &ast.Module{Namespaces: map[string]string{}}
	if err := p.parseProlog(mod); err != nil {
		return nil, err
	}
	if err := body(p, mod); err != nil {
		return nil, err
	}
	return mod, nil
}

// Parse parses a complete main module (prolog + body expression).
func Parse(src string) (*ast.Module, error) {
	return parseModule(src, func(p *Parser, mod *ast.Module) (err error) {
		if mod.Body, err = p.parseExpr(); err == nil && p.tok.Kind != lexer.EOF {
			err = p.errf("unexpected %s after end of expression", p.tok.Kind)
		}
		return err
	})
}

// ParseExpr parses a bare expression (no prolog).
func ParseExpr(src string) (ast.Expr, error) {
	mod, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return mod.Body, nil
}

func (p *Parser) next() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek returns the nth token after the current one without consuming it, by
// scanning ahead on a copy of the lexer. A token that does not scan reads as
// EOF here; the error surfaces when the parser reaches it.
func (p *Parser) peek(n int) lexer.Token {
	ahead := *p.lx
	var t lexer.Token
	for ; n > 0; n-- {
		var err error
		if t, err = ahead.Next(); err != nil {
			return lexer.Token{Kind: lexer.EOF}
		}
	}
	return t
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return &lexer.Error{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k lexer.Kind) error {
	if p.tok.Kind != k {
		return p.errf("expected %s, found %s %q", k, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

// isName reports whether the current token is the given context-sensitive
// keyword.
func (p *Parser) isName(word string) bool {
	return p.tok.Kind == lexer.NAME && p.tok.Text == word
}

func (p *Parser) expectName(word string) error {
	if !p.isName(word) {
		return p.errf("expected %q, found %s %q", word, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

// at returns the current token's position wrapped for AST nodes.
func (p *Parser) at() ast.Base { return ast.At(p.tok.Pos) }

// ---- Prolog ----

// prologDecls maps the keyword after `declare` to the parser of the rest of
// the declaration; pos is where the keyword stood.
var prologDecls = map[string]func(p *Parser, mod *ast.Module, pos ast.Pos) error{
	"namespace":      (*Parser).parseDeclNamespace,
	"default":        (*Parser).parseDeclDefault,
	"boundary-space": (*Parser).parseDeclBoundarySpace,
	"function":       (*Parser).parseDeclFunction,
	"variable":       (*Parser).parseDeclVariable,
	"option":         (*Parser).parseDeclOption,
}

func (p *Parser) parseProlog(mod *ast.Module) error {
	for p.isName("declare") || p.isName("define") {
		kw := p.peek(1)
		decl, ok := prologDecls[kw.Text]
		if kw.Kind != lexer.NAME || !ok {
			return nil // not a prolog declaration; the body begins
		}
		for i := 0; i < 2; i++ { // consume `declare` and the keyword
			if err := p.next(); err != nil {
				return err
			}
		}
		if err := decl(p, mod, kw.Pos); err != nil {
			return err
		}
		if p.tok.Kind == lexer.SEMI {
			if err := p.next(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Parser) parseDeclNamespace(mod *ast.Module, _ ast.Pos) error {
	if p.tok.Kind != lexer.NAME {
		return p.errf("expected namespace prefix")
	}
	prefix := p.tok.Text
	if err := p.next(); err != nil {
		return err
	}
	if err := p.expect(lexer.EQ); err != nil {
		return err
	}
	if p.tok.Kind != lexer.STRING {
		return p.errf("expected namespace URI string")
	}
	mod.Namespaces[prefix] = p.tok.Text
	return p.next()
}

func (p *Parser) parseDeclDefault(mod *ast.Module, _ ast.Pos) error {
	if !p.isName("element") && !p.isName("function") {
		return p.errf("expected 'element' or 'function' after 'declare default'")
	}
	which := p.tok.Text
	if err := p.next(); err != nil {
		return err
	}
	if err := p.expectName("namespace"); err != nil {
		return err
	}
	if p.tok.Kind != lexer.STRING {
		return p.errf("expected namespace URI string")
	}
	mod.Namespaces["#default-"+which] = p.tok.Text
	return p.next()
}

func (p *Parser) parseDeclBoundarySpace(mod *ast.Module, _ ast.Pos) error {
	switch {
	case p.isName("preserve"):
		mod.BoundarySpacePreserve = true
	case p.isName("strip"):
		mod.BoundarySpacePreserve = false
	default:
		return p.errf("expected 'preserve' or 'strip'")
	}
	return p.next()
}

func (p *Parser) parseDeclOption(_ *ast.Module, _ ast.Pos) error {
	if p.tok.Kind != lexer.NAME {
		return p.errf("expected option name")
	}
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.Kind != lexer.STRING {
		return p.errf("expected option value string")
	}
	return p.next()
}

func (p *Parser) parseDeclFunction(mod *ast.Module, pos ast.Pos) error {
	if p.tok.Kind != lexer.NAME {
		return p.errf("expected function name")
	}
	fd := &ast.FuncDecl{Name: p.tok.Text, P: pos}
	if err := p.next(); err != nil {
		return err
	}
	if err := p.expect(lexer.LPAREN); err != nil {
		return err
	}
	for p.tok.Kind != lexer.RPAREN {
		if p.tok.Kind != lexer.VAR {
			return p.errf("expected parameter $name")
		}
		param := ast.Param{Name: p.tok.Text}
		if err := p.next(); err != nil {
			return err
		}
		var err error
		if param.Type, err = p.parseTypeDeclaration(); err != nil {
			return err
		}
		fd.Params = append(fd.Params, param)
		if p.tok.Kind == lexer.COMMA {
			if err := p.next(); err != nil {
				return err
			}
		} else if p.tok.Kind != lexer.RPAREN {
			return p.errf("expected ',' or ')' in parameter list")
		}
	}
	if err := p.next(); err != nil { // consume )
		return err
	}
	var err error
	if fd.Ret, err = p.parseTypeDeclaration(); err != nil {
		return err
	}
	if err := p.expect(lexer.LBRACE); err != nil {
		return err
	}
	body, err := p.parseExpr()
	if err != nil {
		return err
	}
	fd.Body = body
	if err := p.expect(lexer.RBRACE); err != nil {
		return err
	}
	mod.Functions = append(mod.Functions, fd)
	return nil
}

func (p *Parser) parseDeclVariable(mod *ast.Module, pos ast.Pos) error {
	if p.tok.Kind != lexer.VAR {
		return p.errf("expected $name in variable declaration")
	}
	vd := &ast.VarDecl{Name: p.tok.Text, P: pos}
	if err := p.next(); err != nil {
		return err
	}
	if _, err := p.parseTypeDeclaration(); err != nil {
		return err
	}
	switch {
	case p.tok.Kind == lexer.ASSIGN:
		if err := p.next(); err != nil {
			return err
		}
		val, err := p.parseExprSingle()
		if err != nil {
			return err
		}
		vd.Val = val
	case p.tok.Kind == lexer.LBRACE: // 2004-draft form: declare variable $x { expr }
		if err := p.next(); err != nil {
			return err
		}
		val, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expect(lexer.RBRACE); err != nil {
			return err
		}
		vd.Val = val
	case p.isName("external"):
		if err := p.next(); err != nil {
			return err
		}
	default:
		return p.errf("expected ':=', '{', or 'external' in variable declaration")
	}
	mod.Vars = append(mod.Vars, vd)
	return nil
}

// parseTypeDeclaration parses the optional `as SequenceType` that may follow
// a parameter, a function signature or a variable binding; absent, the type
// is item()*.
func (p *Parser) parseTypeDeclaration() (xdm.SequenceType, error) {
	if !p.isName("as") {
		return xdm.AnySequence, nil
	}
	if err := p.next(); err != nil {
		return xdm.SequenceType{}, err
	}
	return p.parseSequenceType()
}

// ---- Expressions ----

// parseExpr parses a comma-separated expression sequence.
func (p *Parser) parseExpr() (ast.Expr, error) {
	b := p.at()
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != lexer.COMMA {
		return first, nil
	}
	items := []ast.Expr{first}
	for p.tok.Kind == lexer.COMMA {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &ast.SequenceExpr{Base: b, Items: items}, nil
}

func (p *Parser) parseExprSingle() (ast.Expr, error) {
	// Every form of nesting — parenthesized expressions, predicates, FLWOR
	// bodies, constructor content — recurses through here, so this is the
	// single chokepoint for the depth guard.
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.tok.Kind == lexer.NAME {
		nxt := p.peek(1)
		switch p.tok.Text {
		case "for", "let":
			if nxt.Kind == lexer.VAR {
				return p.parseFLWOR()
			}
		case "some", "every":
			if nxt.Kind == lexer.VAR {
				return p.parseQuantified()
			}
		case "if":
			if nxt.Kind == lexer.LPAREN {
				return p.parseIf()
			}
		case "typeswitch":
			if nxt.Kind == lexer.LPAREN {
				return p.parseTypeswitch()
			}
		case "try":
			if nxt.Kind == lexer.LBRACE {
				return p.parseTryCatch()
			}
		}
	}
	return p.parseOperators(precOr)
}

// parseTryCatch parses the exception-handling extension:
//
//	try { E } catch { E }
//	try { E } catch ($msg) { E }
//	try { E } catch ($code, $msg) { E }
func (p *Parser) parseTryCatch() (ast.Expr, error) {
	b := p.at()
	if err := p.next(); err != nil { // try
		return nil, err
	}
	if err := p.expect(lexer.LBRACE); err != nil {
		return nil, err
	}
	tryExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(lexer.RBRACE); err != nil {
		return nil, err
	}
	if err := p.expectName("catch"); err != nil {
		return nil, err
	}
	tc := &ast.TryCatch{Base: b, Try: tryExpr}
	if p.tok.Kind == lexer.LPAREN {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind != lexer.VAR {
			return nil, p.errf("expected $variable in catch clause")
		}
		first := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == lexer.COMMA {
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.tok.Kind != lexer.VAR {
				return nil, p.errf("expected second $variable in catch clause")
			}
			tc.CatchCodeVar = first
			tc.CatchVar = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			tc.CatchVar = first
		}
		if err := p.expect(lexer.RPAREN); err != nil {
			return nil, err
		}
	}
	if err := p.expect(lexer.LBRACE); err != nil {
		return nil, err
	}
	catchExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	tc.Catch = catchExpr
	return tc, p.expect(lexer.RBRACE)
}

func (p *Parser) parseFLWOR() (ast.Expr, error) {
	b := p.at()
	fl := &ast.FLWOR{Base: b}
	for p.tok.Kind == lexer.NAME && (p.tok.Text == "for" || p.tok.Text == "let") && p.peek(1).Kind == lexer.VAR {
		keyword := p.tok.Text
		isFor := keyword == "for"
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			pos := p.tok.Pos
			if p.tok.Kind != lexer.VAR {
				return nil, p.errf("expected $variable in %s clause", keyword)
			}
			name := p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if _, err := p.parseTypeDeclaration(); err != nil { // accepted, not checked
				return nil, err
			}
			if isFor {
				fc := ast.ForClause{Var: name, P: pos}
				if p.isName("at") {
					if err := p.next(); err != nil {
						return nil, err
					}
					if p.tok.Kind != lexer.VAR {
						return nil, p.errf("expected $variable after 'at'")
					}
					fc.PosVar = p.tok.Text
					if err := p.next(); err != nil {
						return nil, err
					}
				}
				if err := p.expectName("in"); err != nil {
					return nil, err
				}
				in, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fc.In = in
				fl.Clauses = append(fl.Clauses, fc)
			} else {
				if err := p.expect(lexer.ASSIGN); err != nil {
					return nil, err
				}
				val, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, ast.LetClause{Var: name, Val: val, P: pos})
			}
			if p.tok.Kind != lexer.COMMA {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if p.isName("where") {
		if err := p.next(); err != nil {
			return nil, err
		}
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if p.isName("stable") {
		fl.Stable = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.isName("order") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := ast.OrderSpec{Key: key, EmptyLeast: true}
			if p.isName("ascending") {
				if err := p.next(); err != nil {
					return nil, err
				}
			} else if p.isName("descending") {
				spec.Descending = true
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if p.isName("empty") {
				if err := p.next(); err != nil {
					return nil, err
				}
				switch {
				case p.isName("least"):
					spec.EmptyLeast = true
				case p.isName("greatest"):
					spec.EmptyLeast = false
				default:
					return nil, p.errf("expected 'least' or 'greatest'")
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			fl.OrderBy = append(fl.OrderBy, spec)
			if p.tok.Kind != lexer.COMMA {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	if len(fl.Clauses) == 0 {
		return nil, p.errf("FLWOR expression has no for/let clauses")
	}
	return fl, nil
}

func (p *Parser) parseQuantified() (ast.Expr, error) {
	b := p.at()
	q := &ast.Quantified{Base: b, Every: p.tok.Text == "every"}
	if err := p.next(); err != nil {
		return nil, err
	}
	for {
		if p.tok.Kind != lexer.VAR {
			return nil, p.errf("expected $variable in quantified expression")
		}
		fc := ast.ForClause{Var: p.tok.Text, P: p.tok.Pos}
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectName("in"); err != nil {
			return nil, err
		}
		in, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fc.In = in
		q.Vars = append(q.Vars, fc)
		if p.tok.Kind != lexer.COMMA {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectName("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfy = sat
	return q, nil
}

func (p *Parser) parseIf() (ast.Expr, error) {
	b := p.at()
	if err := p.next(); err != nil { // if
		return nil, err
	}
	if err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(lexer.RPAREN); err != nil {
		return nil, err
	}
	if err := p.expectName("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &ast.IfExpr{Base: b, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseTypeswitch() (ast.Expr, error) {
	b := p.at()
	if err := p.next(); err != nil { // typeswitch
		return nil, err
	}
	if err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	op, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(lexer.RPAREN); err != nil {
		return nil, err
	}
	ts := &ast.Typeswitch{Base: b, Operand: op}
	for p.isName("case") {
		if err := p.next(); err != nil {
			return nil, err
		}
		var c ast.TypeswitchCase
		if p.tok.Kind == lexer.VAR {
			c.Var = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectName("as"); err != nil {
				return nil, err
			}
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return nil, err
		}
		c.Type = t
		if err := p.expectName("return"); err != nil {
			return nil, err
		}
		ret, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		c.Ret = ret
		ts.Cases = append(ts.Cases, c)
	}
	if len(ts.Cases) == 0 {
		return nil, p.errf("typeswitch requires at least one case")
	}
	if err := p.expectName("default"); err != nil {
		return nil, err
	}
	if p.tok.Kind == lexer.VAR {
		ts.DefaultVar = p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	def, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	ts.Default = def
	return ts, nil
}

// The binary-operator precedence levels, loosest first. Each operator's right
// operand is parsed one level tighter than the operator itself; the operand
// below them all is parseUnary.
const (
	precOr             = iota // or
	precAnd                   // and
	precComparison            // eq ne lt le gt ge is << >> = != < <= > >=
	precRange                 // to
	precAdditive              // + -
	precMultiplicative        // * div idiv mod
	precUnion                 // | union
	precIntersect             // intersect except
	precInstanceOf            // instance of
	precTreat                 // treat as
	precCastable              // castable as
	precCast                  // cast as
)

// nonAssoc marks the levels that take one operator, not a chain:
// `1 = 2 = 3` and `1 to 2 to 3` leave the second operator unconsumed, for
// the caller to reject.
var nonAssoc = [precCast + 1]bool{
	precComparison: true, precRange: true,
	precInstanceOf: true, precTreat: true, precCastable: true, precCast: true,
}

// operator is one row of the operator table. A binary operator builds its
// node from a right operand; a type operator is two keywords (`instance
// of`, `cast as`) followed by a type, which typed parses.
type operator struct {
	prec   int
	binary func(b ast.Base, l, r ast.Expr) ast.Expr
	second string
	typed  func(p *Parser, b ast.Base, l ast.Expr) (ast.Expr, error)
}

func binary(tmpl ast.Binary) func(ast.Base, ast.Expr, ast.Expr) ast.Expr {
	return func(b ast.Base, l, r ast.Expr) ast.Expr {
		n := tmpl
		n.Base, n.L, n.R = b, l, r
		return &n
	}
}

func valueComp(op xdm.CompareOp) operator {
	return operator{prec: precComparison, binary: binary(ast.Binary{Kind: ast.OpValueComp, Cmp: op})}
}

func generalComp(op xdm.CompareOp) operator {
	return operator{prec: precComparison, binary: binary(ast.Binary{Kind: ast.OpGeneralComp, Cmp: op})}
}

func arith(prec int, op xdm.ArithOp) operator {
	return operator{prec: prec, binary: binary(ast.Binary{Kind: ast.OpArith, Arith: op})}
}

func setOp(prec int, kind ast.BinOpKind) operator {
	return operator{prec: prec, binary: binary(ast.Binary{Kind: kind})}
}

// operators is keyed by spelling: the text of a name token (the keywords are
// contextual, so the lexer does not know them) or of a punctuation token.
var operators = map[string]operator{
	"or":  setOp(precOr, ast.OpOr),
	"and": setOp(precAnd, ast.OpAnd),

	"eq": valueComp(xdm.OpEq), "ne": valueComp(xdm.OpNe), "lt": valueComp(xdm.OpLt),
	"le": valueComp(xdm.OpLe), "gt": valueComp(xdm.OpGt), "ge": valueComp(xdm.OpGe),
	"=": generalComp(xdm.OpEq), "!=": generalComp(xdm.OpNe), "<": generalComp(xdm.OpLt),
	"<=": generalComp(xdm.OpLe), ">": generalComp(xdm.OpGt), ">=": generalComp(xdm.OpGe),
	"is": setOp(precComparison, ast.OpNodeIs),
	"<<": setOp(precComparison, ast.OpNodeBefore),
	">>": setOp(precComparison, ast.OpNodeAfter),

	"to": {prec: precRange, binary: func(b ast.Base, l, r ast.Expr) ast.Expr {
		return &ast.RangeExpr{Base: b, Lo: l, Hi: r}
	}},

	"+": arith(precAdditive, xdm.OpAdd), "-": arith(precAdditive, xdm.OpSub),
	"*": arith(precMultiplicative, xdm.OpMul), "div": arith(precMultiplicative, xdm.OpDiv),
	"idiv": arith(precMultiplicative, xdm.OpIDiv), "mod": arith(precMultiplicative, xdm.OpMod),

	"|": setOp(precUnion, ast.OpUnion), "union": setOp(precUnion, ast.OpUnion),
	"intersect": setOp(precIntersect, ast.OpIntersect), "except": setOp(precIntersect, ast.OpExcept),

	"instance": {prec: precInstanceOf, second: "of", typed: func(p *Parser, b ast.Base, l ast.Expr) (ast.Expr, error) {
		t, err := p.parseSequenceType()
		return &ast.InstanceOf{Base: b, Operand: l, Type: t}, err
	}},
	"treat": {prec: precTreat, second: "as", typed: func(p *Parser, b ast.Base, l ast.Expr) (ast.Expr, error) {
		t, err := p.parseSequenceType()
		return &ast.TreatAs{Base: b, Operand: l, Type: t}, err
	}},
	"castable": {prec: precCastable, second: "as", typed: func(p *Parser, b ast.Base, l ast.Expr) (ast.Expr, error) {
		name, opt, err := p.parseSingleType()
		return &ast.CastableAs{Base: b, Operand: l, TypeName: name, Optional: opt}, err
	}},
	"cast": {prec: precCast, second: "as", typed: func(p *Parser, b ast.Base, l ast.Expr) (ast.Expr, error) {
		name, opt, err := p.parseSingleType()
		return &ast.CastAs{Base: b, Operand: l, TypeName: name, Optional: opt}, err
	}},
}

// operatorAt returns the table row for the current token, if it is an
// operator here: a variable or string literal spelt like one is not, and a
// type operator needs its second keyword.
func (p *Parser) operatorAt() (operator, bool) {
	if p.tok.Kind == lexer.VAR || p.tok.Kind == lexer.STRING {
		return operator{}, false
	}
	op, ok := operators[p.tok.Text]
	if ok && op.second != "" {
		nxt := p.peek(1)
		ok = nxt.Kind == lexer.NAME && nxt.Text == op.second
	}
	return op, ok
}

// parseOperators parses an operand and then, by precedence climbing, every
// operator of level minPrec or tighter that follows it. ceiling is the
// tightest level still open: consuming an operator closes the levels above
// it (its right operand has already declined them) and, if the level is
// non-associative, the level itself.
func (p *Parser) parseOperators(minPrec int) (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for ceiling := precCast; ; {
		op, ok := p.operatorAt()
		if !ok || op.prec < minPrec || op.prec > ceiling {
			return l, nil
		}
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		if op.second != "" {
			if err := p.expectName(op.second); err != nil {
				return nil, err
			}
			l, err = op.typed(p, b, l)
		} else {
			var r ast.Expr
			r, err = p.parseOperators(op.prec + 1)
			l = op.binary(b, l, r)
		}
		if err != nil {
			return nil, err
		}
		ceiling = op.prec
		if nonAssoc[op.prec] {
			ceiling--
		}
	}
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	minus := false
	seen := false
	b := p.at()
	for p.tok.Kind == lexer.PLUS || p.tok.Kind == lexer.MINUS {
		if p.tok.Kind == lexer.MINUS {
			minus = !minus
		}
		seen = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	operand, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if !seen {
		return operand, nil
	}
	return &ast.Unary{Base: b, Minus: minus, Operand: operand}, nil
}
