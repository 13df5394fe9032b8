// Package lexer tokenizes XQuery source for the subset engine.
//
// It reproduces the lexical quirks the paper documents: '-' and '.' are name
// characters, so $n-1 is a single three-letter variable (quirk #3); '/' is a
// path step, never division (quirk #2); keywords are context-sensitive and
// emitted as plain names for the parser to interpret; comments are the
// nestable (: ... :) form; and string literals escape their delimiter by
// doubling and accept the predefined entity references.
//
// Direct element constructors are scanned in raw character mode: the parser
// rewinds to the '<' and drives the byte-level primitives (PeekAt, Advance,
// ScanQName, …) itself.
package lexer

import (
	"fmt"
	"strconv"
	"strings"

	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
)

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	EOF  Kind = iota
	NAME      // QName or NCName, including keyword-looking names
	VAR       // $name
	STRING
	INTEGER
	DECIMAL
	DOUBLE
	LPAREN     // (
	RPAREN     // )
	LBRACKET   // [
	RBRACKET   // ]
	LBRACE     // {
	RBRACE     // }
	COMMA      // ,
	SEMI       // ;
	DOT        // .
	DOTDOT     // ..
	SLASH      // /
	SLASHSLASH // //
	AT         // @
	PIPE       // |
	PLUS       // +
	MINUS      // -
	STAR       // *
	QUESTION   // ?
	ASSIGN     // :=
	EQ         // =
	NE         // !=
	LT         // <
	LE         // <=
	GT         // >
	GE         // >=
	LTLT       // <<
	GTGT       // >>
	AXISSEP    // ::
)

var kindNames = [...]string{
	EOF: "end of input", NAME: "name", VAR: "variable", STRING: "string literal",
	INTEGER: "integer literal", DECIMAL: "decimal literal", DOUBLE: "double literal",
	LPAREN: "'('", RPAREN: "')'", LBRACKET: "'['", RBRACKET: "']'",
	LBRACE: "'{'", RBRACE: "'}'", COMMA: "','", SEMI: "';'", DOT: "'.'",
	DOTDOT: "'..'", SLASH: "'/'", SLASHSLASH: "'//'", AT: "'@'", PIPE: "'|'",
	PLUS: "'+'", MINUS: "'-'", STAR: "'*'", QUESTION: "'?'", ASSIGN: "':='",
	EQ: "'='", NE: "'!='", LT: "'<'", LE: "'<='", GT: "'>'", GE: "'>='",
	LTLT: "'<<'", GTGT: "'>>'", AXISSEP: "'::'",
}

// String names the token kind for diagnostics.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is one lexical token. Text is a slice of the source, except for a
// string literal that contains an escape. Offset is the byte offset where
// the token begins.
type Token struct {
	Kind   Kind
	Text   string // name text, decoded string value, or number spelling
	Pos    ast.Pos
	Offset int
}

// Error is a lexical or syntactic error with position. Code, when set,
// carries a specific XQuery static error code (for example XQST0040 for a
// duplicate attribute in a direct constructor); when empty the error
// reports under the generic syntax code XPST0003.
type Error struct {
	Pos  ast.Pos
	Msg  string
	Code string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("xquery: %d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

// Lexer scans XQuery source. Its whole state is an offset plus the line
// bookkeeping that answers Pos in constant time, so a Lexer value can be
// copied to look ahead and rewound to any token it produced.
type Lexer struct {
	src       string
	pos       int // offset of the next unread byte
	line      int // 1-based line of pos
	lineStart int // offset of the first byte of that line
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Rewind repositions the scanner at the start of t, a token it produced
// earlier: the next Next returns t again, and raw mode starts at t's first
// byte.
func (l *Lexer) Rewind(t Token) {
	l.pos, l.line, l.lineStart = t.Offset, t.Pos.Line, t.Offset-(t.Pos.Col-1)
}

// Pos returns the current source position; columns count bytes.
func (l *Lexer) Pos() ast.Pos { return ast.Pos{Line: l.line, Col: l.pos - l.lineStart + 1} }

// Errf builds a lexical error at the current position; the parser uses it in
// raw mode so every diagnostic carries a line and column (the paper's Galax
// gave none).
func (l *Lexer) Errf(format string, args ...interface{}) error {
	return &Error{Pos: l.Pos(), Msg: fmt.Sprintf(format, args...)}
}

// ---- Byte-level primitives, shared by Next and the raw-mode scanner ----

// AtEOF reports whether the input is exhausted.
func (l *Lexer) AtEOF() bool { return l.pos >= len(l.src) }

// PeekAt returns the byte i positions ahead (0 past the end of input).
func (l *Lexer) PeekAt(i int) byte {
	if l.pos+i >= len(l.src) {
		return 0
	}
	return l.src[l.pos+i]
}

// HasPrefix reports whether the remaining input starts with s.
func (l *Lexer) HasPrefix(s string) bool { return strings.HasPrefix(l.src[l.pos:], s) }

// Advance consumes n bytes (fewer at the end of input). A line end is
// consumed only here and in newline, so only they touch the line
// bookkeeping; names, numbers and punctuation move pos alone.
func (l *Lexer) Advance(n int) {
	end := min(l.pos+n, len(l.src))
	if i := strings.LastIndexByte(l.src[l.pos:end], '\n'); i >= 0 {
		l.line += strings.Count(l.src[l.pos:end], "\n")
		l.lineStart = l.pos + i + 1
	}
	l.pos = end
}

// newline consumes the '\n' at the current position.
func (l *Lexer) newline() {
	l.pos++
	l.line++
	l.lineStart = l.pos
}

// SkipSpace consumes XML whitespace.
func (l *Lexer) SkipSpace() {
	for !l.AtEOF() {
		switch l.src[l.pos] {
		case '\n':
			l.newline()
		case ' ', '\t', '\r':
			l.pos++
		default:
			return
		}
	}
}

// skipSpaceAndComments skips whitespace and nested (: ... :) comments.
func (l *Lexer) skipSpaceAndComments() error {
	for l.SkipSpace(); l.HasPrefix("(:"); l.SkipSpace() {
		l.pos += 2
		for depth := 1; depth > 0; {
			switch {
			case l.AtEOF():
				return l.Errf("unterminated comment")
			case l.HasPrefix("(:"):
				depth++
				l.pos += 2
			case l.HasPrefix(":)"):
				depth--
				l.pos += 2
			case l.src[l.pos] == '\n':
				l.newline()
			default:
				l.pos++
			}
		}
	}
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isNameStart and isNameChar classify bytes, not runes: every rune above 127
// is a name character, so every byte of its encoding (and every stray byte
// above 127) is one too.
func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c > 127
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || isDigit(c)
}

func (l *Lexer) skipNameChars() {
	for !l.AtEOF() && isNameChar(l.src[l.pos]) {
		l.pos++
	}
}

// scanQName scans NCName(:NCName)? or the wildcard form pre:* and returns it
// as a slice of the source. The caller has checked that the current byte is
// a name start.
func (l *Lexer) scanQName() string {
	start := l.pos
	l.skipNameChars()
	// prefix:local or prefix:* — only when ':' is immediately followed by a
	// name start or '*', which rules out '::' (axis separator) and ':='
	// (assign).
	if l.PeekAt(0) == ':' {
		if next := l.PeekAt(1); next == '*' {
			l.pos += 2
		} else if isNameStart(next) {
			l.pos++
			l.skipNameChars()
		}
	}
	return l.src[start:l.pos]
}

// ScanQName scans a tag, attribute or PI-target name in raw mode.
func (l *Lexer) ScanQName() (string, error) {
	if !isNameStart(l.PeekAt(0)) {
		return "", l.Errf("expected name in constructor")
	}
	return l.scanQName(), nil
}

// ScanEntity decodes the entity reference at the current '&'.
func (l *Lexer) ScanEntity() (string, error) {
	end := strings.IndexByte(l.src[l.pos:], ';')
	if end < 0 || end > 12 {
		return "", l.Errf("unterminated entity reference")
	}
	s, err := xmltree.ResolveEntity(l.src[l.pos+1 : l.pos+end])
	if err != nil {
		return "", l.Errf("%v", err)
	}
	l.Advance(end + 1)
	return s, nil
}

// ScanUntil consumes through the next occurrence of delim and returns the
// text before it. When delim does not occur, ok is false and nothing is
// consumed.
func (l *Lexer) ScanUntil(delim string) (text string, ok bool) {
	end := strings.Index(l.src[l.pos:], delim)
	if end < 0 {
		return "", false
	}
	text = l.src[l.pos : l.pos+end]
	l.Advance(end + len(delim))
	return text, true
}

// ---- Tokens ----

// punct maps each byte that is a token by itself to its kind; the zero Kind
// marks the bytes that are not.
var punct = [256]Kind{
	'(': LPAREN, ')': RPAREN, '[': LBRACKET, ']': RBRACKET,
	'{': LBRACE, '}': RBRACE, ',': COMMA, ';': SEMI, '.': DOT,
	'/': SLASH, '@': AT, '|': PIPE, '+': PLUS, '-': MINUS, '*': STAR,
	'?': QUESTION, '=': EQ, '<': LT, '>': GT,
}

// punct2 is punct for the two-byte tokens.
func punct2(s string) Kind {
	switch s {
	case "..":
		return DOTDOT
	case "//":
		return SLASHSLASH
	case ":=":
		return ASSIGN
	case "!=":
		return NE
	case "<=":
		return LE
	case ">=":
		return GE
	case "<<":
		return LTLT
	case ">>":
		return GTGT
	case "::":
		return AXISSEP
	}
	return EOF
}

// Next scans the next regular-mode token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Pos: l.Pos(), Offset: l.pos}
	if l.AtEOF() {
		return tok, nil
	}
	c := l.src[l.pos]
	switch {
	case isDigit(c), c == '.' && isDigit(l.PeekAt(1)):
		return l.scanNumber(tok)
	case c == '"', c == '\'':
		return l.scanString(tok)
	case c == '$':
		l.pos++
		if !isNameStart(l.PeekAt(0)) {
			return tok, l.Errf("expected variable name after '$'")
		}
		tok.Kind, tok.Text = VAR, l.scanQName()
		return tok, nil
	case isNameStart(c):
		tok.Kind, tok.Text = NAME, l.scanQName()
		return tok, nil
	case c == '*' && l.PeekAt(1) == ':' && isNameStart(l.PeekAt(2)): // *:local
		l.pos += 2
		l.skipNameChars()
		tok.Kind, tok.Text = NAME, l.src[tok.Offset:l.pos]
		return tok, nil
	}
	// Punctuation, longest match first.
	n := 2
	if tok.Kind = punct2(l.src[l.pos:min(l.pos+n, len(l.src))]); tok.Kind == EOF {
		n = 1
		if tok.Kind = punct[c]; tok.Kind == EOF {
			return tok, l.Errf("unexpected character %q", string(c))
		}
	}
	tok.Text = l.src[l.pos : l.pos+n]
	l.pos += n
	return tok, nil
}

func (l *Lexer) skipDigits() {
	for isDigit(l.PeekAt(0)) {
		l.pos++
	}
}

func (l *Lexer) scanNumber(tok Token) (Token, error) {
	tok.Kind = INTEGER
	l.skipDigits()
	if l.PeekAt(0) == '.' && l.PeekAt(1) != '.' {
		tok.Kind = DECIMAL
		l.pos++
		l.skipDigits()
	}
	// An exponent needs at least one digit; "1e" is the number 1 and then
	// whatever the e begins.
	if c := l.PeekAt(0); c == 'e' || c == 'E' {
		mantissaEnd := l.pos
		l.pos++
		if c := l.PeekAt(0); c == '+' || c == '-' {
			l.pos++
		}
		if isDigit(l.PeekAt(0)) {
			tok.Kind = DOUBLE
			l.skipDigits()
		} else {
			l.pos = mantissaEnd
		}
	}
	tok.Text = l.src[tok.Offset:l.pos]
	// A number immediately followed by a name character is a lexical error
	// in XQuery ("1foo").
	if isNameStart(l.PeekAt(0)) {
		return tok, l.Errf("number %q immediately followed by a name", tok.Text)
	}
	return tok, nil
}

// ParseNumber converts a scanned numeric token to its value.
func ParseNumber(tok Token) (intVal int64, floatVal float64, err error) {
	switch tok.Kind {
	case INTEGER:
		intVal, err = strconv.ParseInt(tok.Text, 10, 64)
	case DECIMAL, DOUBLE:
		floatVal, err = strconv.ParseFloat(tok.Text, 64)
	default:
		err = fmt.Errorf("not a number token: %v", tok.Kind)
	}
	return intVal, floatVal, err
}

// scanString scans a string literal, whose delimiter is escaped by doubling
// and which may hold entity references. decoded stays empty — and the
// token's text a slice of the source — until the first escape.
func (l *Lexer) scanString(tok Token) (Token, error) {
	quote := l.src[l.pos]
	l.pos++
	var decoded []byte
	run := l.pos // start of the literal bytes not yet copied to decoded
	for {
		switch c := l.PeekAt(0); {
		case l.AtEOF():
			return tok, l.Errf("unterminated string literal")
		case c == quote && l.PeekAt(1) == quote:
			decoded = append(append(decoded, l.src[run:l.pos]...), quote)
			l.pos += 2
			run = l.pos
		case c == quote:
			tok.Kind, tok.Text = STRING, l.src[run:l.pos]
			if len(decoded) > 0 {
				tok.Text = string(decoded) + tok.Text
			}
			l.pos++
			return tok, nil
		case c == '&':
			decoded = append(decoded, l.src[run:l.pos]...)
			s, err := l.ScanEntity()
			if err != nil {
				return tok, err
			}
			decoded = append(decoded, s...)
			run = l.pos
		case c == '\n':
			l.newline()
		default:
			l.pos++
		}
	}
}
