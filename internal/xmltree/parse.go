package xmltree

import "fmt"

// ParseError describes a syntax error in an XML input, with 1-based line and
// column of the offending position.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// ParseOptions controls parsing behavior.
type ParseOptions struct {
	// TrimWhitespace drops text nodes that consist entirely of XML
	// whitespace. Document-generation templates are authored indented;
	// trimming matches how AWB read them.
	TrimWhitespace bool
	// DropComments discards comment nodes; by default they are preserved.
	DropComments bool
	// MaxDepth bounds element nesting; 0 means DefaultMaxDepth. The scanner
	// keeps its open elements on an explicit stack, but the trees it feeds
	// are walked recursively everywhere else, and a Go stack overflow is
	// not recoverable, so pathological input ("<a><a><a>…") must fail with
	// a ParseError before it can crash the process.
	MaxDepth int
}

// DefaultMaxDepth is the element-nesting bound applied when
// ParseOptions.MaxDepth is zero. Far deeper than any real document.
const DefaultMaxDepth = 4000

// Parse parses a complete XML document and returns its document node.
func Parse(input string) (*Node, error) {
	return ParseWith(input, ParseOptions{})
}

// ParseTrimmed parses a document, dropping whitespace-only text nodes.
func ParseTrimmed(input string) (*Node, error) {
	return ParseWith(input, ParseOptions{TrimWhitespace: true})
}

// MustParse is Parse that panics on error. It is intended ONLY for tests
// and embedded literals known at compile time to be well-formed; a panic
// here is programmer misuse, per the package's panic contract. Never feed
// it user or network input — use Parse, which returns a *ParseError.
func MustParse(input string) *Node {
	d, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseWith parses a complete XML document with the given options. The
// tree's names, text and attribute values are substrings of input wherever
// no reference had to be decoded, so the tree keeps input alive.
func ParseWith(input string, opts ParseOptions) (*Node, error) {
	s := scanString(input, opts, false)
	doc, _, err := buildTree(&s, nil, nil)
	return doc, err
}

// ParseFragment parses a sequence of top-level XML items (elements, text,
// comments, PIs) without requiring a single root element, returning them in
// order. Used for parsing template snippets and constructor content.
func ParseFragment(input string) ([]*Node, error) {
	s := scanString(input, ParseOptions{}, true)
	doc, _, err := buildTree(&s, nil, nil)
	if err != nil {
		return nil, err
	}
	kids := doc.Children()
	for _, k := range kids {
		k.Parent = nil
	}
	return kids, nil
}

// entityRune resolves the body of an entity or character reference (the
// text between '&' and ';') to the character it stands for. A non-empty
// problem says what is wrong with the reference instead.
func entityRune(ent string) (r rune, problem string) {
	switch ent {
	case "lt":
		return '<', ""
	case "gt":
		return '>', ""
	case "amp":
		return '&', ""
	case "quot":
		return '"', ""
	case "apos":
		return '\'', ""
	}
	if len(ent) == 0 || ent[0] != '#' {
		return 0, "unknown entity"
	}
	digits, base := ent[1:], uint64(10)
	if len(digits) > 0 && (digits[0] == 'x' || digits[0] == 'X') {
		digits, base = digits[1:], 16
	}
	// A 32-bit value in plain digits, like strconv.ParseUint(digits, base,
	// 32) but without an error value that makes ent escape to the heap.
	var v uint64
	for i := 0; i < len(digits); i++ {
		d := base
		switch c := digits[i]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		}
		if v = v*base + d; d >= base || v > 1<<32-1 {
			return 0, "bad character reference"
		}
	}
	if len(digits) == 0 {
		return 0, "bad character reference"
	}
	// Values that are not Unicode scalar values decode to U+FFFD.
	return rune(uint32(v)), ""
}

// ResolveEntity resolves a named or character entity reference (the text
// between '&' and ';') to its replacement string. Exposed for the XQuery
// lexer, which must decode the same references inside string literals and
// direct element constructors.
func ResolveEntity(ent string) (string, error) {
	r, problem := entityRune(ent)
	if problem != "" {
		return "", fmt.Errorf("%s &%s;", problem, ent)
	}
	return string(r), nil
}
