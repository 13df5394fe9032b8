package lexer

import (
	"strings"
	"testing"
)

// scanTokens tokenizes src to EOF.
func scanTokens(t *testing.T, src string) []Token {
	t.Helper()
	l := New(src)
	var out []Token
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		if tok.Kind == EOF {
			return out
		}
		out = append(out, tok)
	}
}

// scanAll returns "KIND:text" strings for value assertions.
func scanAll(t *testing.T, src string) []string {
	t.Helper()
	var out []string
	for _, tok := range scanTokens(t, src) {
		out = append(out, tok.Kind.String()+":"+tok.Text)
	}
	return out
}

func kinds(t *testing.T, src string) string {
	t.Helper()
	var ks []string
	for _, tok := range scanTokens(t, src) {
		ks = append(ks, tok.Kind.String())
	}
	return strings.Join(ks, " ")
}

func TestDashIsANameCharacter(t *testing.T) {
	// Quirk #3: $n-1 is one variable.
	toks := scanAll(t, `$n-1`)
	if len(toks) != 1 || toks[0] != "variable:n-1" {
		t.Fatalf("$n-1 = %v", toks)
	}
	// With whitespace it is three tokens.
	if got := kinds(t, `$n - 1`); got != "variable '-' integer literal" {
		t.Fatalf("$n - 1 kinds = %q", got)
	}
	// foo-3 is a single name (names may contain digits after the start).
	toks = scanAll(t, `foo-3`)
	if len(toks) != 1 || toks[0] != "name:foo-3" {
		t.Fatalf("foo-3 = %v", toks)
	}
	// But 3-foo is a number, minus, name... actually '-' then name.
	if got := kinds(t, `3 -foo`); got != "integer literal '-' name" {
		t.Fatalf("3 -foo = %q", got)
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct{ src, want string }{
		{`42`, "integer literal:42"},
		{`3.14`, "decimal literal:3.14"},
		{`.5`, "decimal literal:.5"},
		{`1e3`, "double literal:1e3"},
		{`1.5E-2`, "double literal:1.5E-2"},
		{`4.`, "decimal literal:4."},
	}
	for _, c := range cases {
		toks := scanAll(t, c.src)
		if len(toks) != 1 || toks[0] != c.want {
			t.Errorf("%q = %v, want %v", c.src, toks, c.want)
		}
	}
	// "1foo" is a lexical error.
	l := New("1foo")
	if _, err := l.Next(); err == nil {
		t.Fatal("1foo should be a lexical error")
	}
	// ".." does not start a decimal.
	if got := kinds(t, `1 .. 2`); got != "integer literal '..' integer literal" {
		t.Fatalf("dotdot: %q", got)
	}
	// "1e" without digits: e is a separate name.
	if got := kinds(t, `1 e`); got != "integer literal name" {
		t.Fatalf("bare e: %q", got)
	}
}

func TestQNamesAndWildcards(t *testing.T) {
	toks := scanAll(t, `fn:doc`)
	if len(toks) != 1 || toks[0] != "name:fn:doc" {
		t.Fatalf("QName = %v", toks)
	}
	toks = scanAll(t, `pre:*`)
	if len(toks) != 1 || toks[0] != "name:pre:*" {
		t.Fatalf("pre:* = %v", toks)
	}
	toks = scanAll(t, `*:local`)
	if len(toks) != 1 || toks[0] != "name:*:local" {
		t.Fatalf("*:local = %v", toks)
	}
	// child::x does not eat the axis separator.
	if got := kinds(t, `child::x`); got != "name '::' name" {
		t.Fatalf("axis: %q", got)
	}
	// a := b does not form a QName with the assign.
	if got := kinds(t, `$x := 1`); got != "variable ':=' integer literal" {
		t.Fatalf("assign: %q", got)
	}
}

func TestStringsAndEntities(t *testing.T) {
	toks := scanAll(t, `"don""t"`)
	if toks[0] != `string literal:don"t` {
		t.Fatalf("doubled quotes: %v", toks)
	}
	toks = scanAll(t, `'it''s'`)
	if toks[0] != "string literal:it's" {
		t.Fatalf("doubled apostrophes: %v", toks)
	}
	toks = scanAll(t, `"a&lt;b&#65;"`)
	if toks[0] != "string literal:a<bA" {
		t.Fatalf("entities: %v", toks)
	}
	l := New(`"unterminated`)
	if _, err := l.Next(); err == nil {
		t.Fatal("unterminated string")
	}
	l = New(`"bad &nope; entity"`)
	if _, err := l.Next(); err == nil {
		t.Fatal("bad entity in string")
	}
}

func TestCommentsNestAndPositions(t *testing.T) {
	if got := kinds(t, `1 (: a (: b :) c :) 2`); got != "integer literal integer literal" {
		t.Fatalf("nested comments: %q", got)
	}
	l := New("(: never closed")
	if _, err := l.Next(); err == nil {
		t.Fatal("unterminated comment")
	}
	// Positions are 1-based and track newlines.
	l = New("1\n  abc")
	tok, _ := l.Next()
	if tok.Pos.Line != 1 || tok.Pos.Col != 1 {
		t.Fatalf("first pos: %+v", tok.Pos)
	}
	tok, _ = l.Next()
	if tok.Pos.Line != 2 || tok.Pos.Col != 3 {
		t.Fatalf("second pos: %+v", tok.Pos)
	}
}

func TestPunctuationLongestMatch(t *testing.T) {
	cases := []struct{ src, want string }{
		{`<=`, "'<='"},
		{`<<`, "'<<'"},
		{`>=`, "'>='"},
		{`>>`, "'>>'"},
		{`!=`, "'!='"},
		{`//`, "'//'"},
		{`::`, "'::'"},
		{`|`, "'|'"},
		{`@`, "'@'"},
		{`?`, "'?'"},
	}
	for _, c := range cases {
		if got := kinds(t, c.src); got != c.want {
			t.Errorf("%q = %q, want %q", c.src, got, c.want)
		}
	}
	// < followed by space is just less-than.
	if got := kinds(t, `1 < 2`); got != "integer literal '<' integer literal" {
		t.Fatalf("lt: %q", got)
	}
}

func TestRewind(t *testing.T) {
	// Rewinding to a token replays it, line and column included, and a
	// copy of the lexer looks ahead without moving the original.
	l := New("a\n  b c")
	for i := 0; i < 2; i++ {
		if _, err := l.Next(); err != nil {
			t.Fatal(err)
		}
	}
	ahead := *l
	t1, _ := ahead.Next()
	t2, _ := l.Next()
	if t1 != t2 || t1.Text != "c" {
		t.Fatalf("lookahead on a copy: %+v vs %+v", t1, t2)
	}
	first, _ := New("a\n  b c").Next()
	l.Rewind(first)
	if tok, _ := l.Next(); tok != first {
		t.Fatalf("Rewind to first token replays %+v, want %+v", tok, first)
	}
	tok, _ := l.Next()
	l.Rewind(tok)
	if p := l.Pos(); p.Line != 2 || p.Col != 3 {
		t.Fatalf("Rewind pos: %+v", p)
	}
}

func TestRawMode(t *testing.T) {
	l := New(`<el attr="v">text</el>`)
	if l.PeekAt(0) != '<' {
		t.Fatal("PeekAt")
	}
	l.Advance(1)
	name, err := l.ScanQName()
	if err != nil || name != "el" {
		t.Fatal("ScanQName")
	}
	l.SkipSpace()
	if !l.HasPrefix("attr=") {
		t.Fatal("HasPrefix")
	}
	if got, ok := l.ScanUntil("="); !ok || got != "attr" {
		t.Fatalf("ScanUntil: %q", got)
	}
	if _, ok := l.ScanUntil("]]>"); ok || l.PeekAt(0) != '"' {
		t.Fatal("a failed ScanUntil must consume nothing")
	}
	// Advance keeps the line bookkeeping across any number of newlines.
	l = New("a\nb\n\ncd")
	l.Advance(6)
	if p := l.Pos(); p.Line != 4 || p.Col != 2 {
		t.Fatalf("Advance pos: %+v", p)
	}
	// QName scan at EOF errors.
	l2 := New("")
	if _, err := l2.ScanQName(); err == nil {
		t.Fatal("ScanQName at EOF")
	}
	if !l2.AtEOF() {
		t.Fatal("AtEOF")
	}
}

// pointFLWOR is the 147-byte point query the benchmark's cold-compile layer
// rows are measured on.
const pointFLWOR = `for $b in /collection/library/book[@id = "b0042"] ` +
	`where $b/price > 10.5 and $b/year >= 2001 ` +
	`return <result id="{$b/@id}">{$b/title/text()}</result>`

// TestLexAllocs: a token's text is a slice of the source, so lexing
// allocates nothing — except for a string literal that contains an escape,
// whose decoded value has to be built.
func TestLexAllocs(t *testing.T) {
	if len(pointFLWOR) != 147 {
		t.Fatalf("pointFLWOR is %d bytes", len(pointFLWOR))
	}
	lexAll := func(src string) func() {
		l := New(src)
		first, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			l.Rewind(first)
			for {
				tok, err := l.Next()
				if err != nil {
					t.Fatal(err)
				}
				if tok.Kind == EOF {
					return
				}
			}
		}
	}
	if got := testing.AllocsPerRun(100, lexAll(pointFLWOR)); got != 0 {
		t.Errorf("lexing the point FLWOR: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, lexAll(`pre:local *:x p:* $v:w 1.5e3 "plain" 'it' (: c :) // :=`)); got != 0 {
		t.Errorf("lexing names, numbers and plain strings: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, lexAll(`"don""t"`)); got == 0 {
		t.Error("a string literal with an escape must build its value")
	}
}

func TestVarErrors(t *testing.T) {
	l := New("$ 1")
	if _, err := l.Next(); err == nil {
		t.Fatal("$ without name")
	}
	l = New("$")
	if _, err := l.Next(); err == nil {
		t.Fatal("$ at EOF")
	}
	l = New("#")
	if _, err := l.Next(); err == nil {
		t.Fatal("unknown character")
	}
}

func TestParseNumberHelper(t *testing.T) {
	l := New("42 2.5")
	tok, _ := l.Next()
	i, _, err := ParseNumber(tok)
	if err != nil || i != 42 {
		t.Fatal("ParseNumber int")
	}
	tok, _ = l.Next()
	_, f, err := ParseNumber(tok)
	if err != nil || f != 2.5 {
		t.Fatal("ParseNumber decimal")
	}
	if _, _, err := ParseNumber(Token{Kind: NAME}); err == nil {
		t.Fatal("ParseNumber of name")
	}
}

func TestKindStrings(t *testing.T) {
	if EOF.String() != "end of input" || Kind(99).String() == "" {
		t.Fatal("Kind.String")
	}
	e := &Error{Pos: tokenPos(3, 7), Msg: "boom"}
	if !strings.Contains(e.Error(), "3:7") {
		t.Fatal("Error position formatting")
	}
}

func tokenPos(line, col int) (p struct{ Line, Col int }) {
	p.Line, p.Col = line, col
	return p
}
