package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"unicode/utf8"
	"unsafe"
)

// TokenKind classifies one event from the Scanner.
type TokenKind int

// The event kinds a Scanner emits. Self-closing elements emit a
// TokStartElement with SelfClose set followed by a synthetic TokEndElement,
// so consumers always see balanced start/end pairs.
const (
	TokStartElement TokenKind = iota
	TokEndElement
	TokText
	TokComment
	TokPI
	TokEOF
)

// ScanAttr is one attribute of a TokStartElement, in document order.
type ScanAttr struct {
	Name, Value string
}

// Token is one parse event. Name holds the element name (start/end) or PI
// target; Data holds text, comment data, or PI data.
type Token struct {
	Kind      TokenKind
	Name      string
	Data      string
	Attrs     []ScanAttr
	SelfClose bool
}

// Scanner is the package's only XML tokenizer. Every production — tags,
// attributes, entity and character references, comments, CDATA sections,
// processing instructions, the prolog — and every *ParseError is written
// once, here, and three consumers read the event stream: the tree builder
// behind Parse, ParseReader and ParseProjected (reader.go), and the SAX
// evaluator in internal/xquery/stream.
//
// A Scanner parses one complete document: optional XML declaration, misc
// items, one root element, trailing misc, then TokEOF forever. Next
// materializes tokens; SkipElement runs the same productions over a
// just-opened element's subtree with full validation but builds nothing,
// which is how the projected builder and the SAX evaluator pass over
// branches they do not need without allocating.
//
// Input is a byte window the productions index directly. Over an io.Reader
// the window slides: fill shifts the unread tail to the front and reads
// more, growing only when a single name, attribute value, text run,
// comment or PI outgrows it. A string parsed in memory is the whole window
// from the start, fill reports end of input, and names, text and attribute
// values are substrings of it instead of copies.
type Scanner struct {
	opts ParseOptions
	// fragment makes the top level element content (text, any number of
	// elements, no prolog) instead of a document: ParseFragment's grammar.
	fragment bool

	r     io.Reader // nil for in-memory input and once the reader is exhausted
	ioErr error     // the read error that ended the input, unless io.EOF
	src   string    // in-memory input; buf aliases it and is never written
	buf   []byte    // the window; buf[pos:] is unread
	pos   int
	// mark, when non-negative, is the start of a span a production still
	// needs; fill keeps buf[mark:] and moves mark with it. Productions hold
	// no other window index across a fill.
	mark int
	base int64 // input offset of buf[0]

	// Line counting is lazy: newlines are counted up to lnPos when a
	// position is asked for or the window slides past them.
	lnPos     int   // window index the count has reached
	line      int   // 1-based line of buf[lnPos]
	lineStart int64 // input offset of that line's first byte

	// stack holds the open element names.
	stack     []string
	seenRoot  bool
	queuedEnd string // name of a self-closed element whose synthetic end is due
	err       error

	// names interns element and attribute names read through a sliding
	// window, so the steady state allocates none, in either mode.
	names map[string]string
	// attrs collects the current start tag's attributes for the duplicate
	// check; a token gets its own copy.
	attrs []ScanAttr
	// textBuf holds text being decoded: a content run that contains
	// references or CDATA, or an attribute value that contains references.
	// The two never overlap, because pending text is emitted before a tag.
	textBuf      []byte
	elemsSkipped int64
}

// NewScanner returns a Scanner over r with the given options.
func NewScanner(r io.Reader, opts ParseOptions) *Scanner {
	return &Scanner{opts: opts, r: r, buf: make([]byte, 0, 1<<14), mark: -1, line: 1}
}

// scanString returns a Scanner over an in-memory document or fragment.
func scanString(input string, opts ParseOptions, fragment bool) Scanner {
	// The window is a read-only view of the string's bytes: with r nil,
	// fill never shifts or reads into it.
	buf := unsafe.Slice(unsafe.StringData(input), len(input))
	return Scanner{opts: opts, fragment: fragment, src: input, buf: buf, mark: -1, line: 1}
}

// maxInternedNames bounds the name table so that input with unboundedly
// many distinct names costs garbage, not retained memory.
const maxInternedNames = 1024

// BytesRead reports how many input bytes the scanner has consumed.
func (s *Scanner) BytesRead() int64 { return s.base + int64(s.pos) }

// ElementsSkipped reports how many elements SkipElement has consumed
// without building (the projection layer's pruning counter).
func (s *Scanner) ElementsSkipped() int64 { return s.elemsSkipped }

// Depth reports the number of currently open elements.
func (s *Scanner) Depth() int { return len(s.stack) }

func (s *Scanner) maxDepth() int {
	if s.opts.MaxDepth > 0 {
		return s.opts.MaxDepth
	}
	return DefaultMaxDepth
}

// ---- The window ----

// fill reads more input behind the unread bytes, first sliding everything
// no production needs out of the window. It reports whether any arrived.
func (s *Scanner) fill() bool {
	if s.r == nil {
		return false
	}
	keep := s.pos
	if s.mark >= 0 {
		keep = s.mark
	}
	if keep > 0 {
		if s.lnPos < keep {
			s.lineCol(keep)
		}
		s.buf = s.buf[:copy(s.buf, s.buf[keep:])]
		s.base += int64(keep)
		s.pos -= keep
		s.lnPos -= keep
		if s.mark >= 0 {
			s.mark = 0
		}
	}
	if len(s.buf) == cap(s.buf) {
		s.buf = slices.Grow(s.buf, len(s.buf))
	}
	for empty := 0; ; empty++ {
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		if err == nil && n == 0 && empty == 100 {
			err = io.ErrNoProgress
		}
		if err != nil {
			s.r = nil
			if err != io.EOF {
				s.ioErr = fmt.Errorf("xml: read: %w", err)
			}
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// more reports whether an unread byte is available.
func (s *Scanner) more() bool { return s.pos < len(s.buf) || s.fill() }

// ensure tries to make n unread bytes available and reports whether they are.
func (s *Scanner) ensure(n int) bool {
	for len(s.buf)-s.pos < n && s.fill() {
	}
	return len(s.buf)-s.pos >= n
}

// hasPrefix reports whether the unread input starts with lit.
func (s *Scanner) hasPrefix(lit string) bool {
	return s.ensure(len(lit)) && string(s.buf[s.pos:s.pos+len(lit)]) == lit
}

// text materializes buf[a:b]: a substring of in-memory input, else a copy.
func (s *Scanner) text(a, b int) string {
	if s.src != "" {
		return s.src[a:b]
	}
	return string(s.buf[a:b])
}

var newline = []byte{'\n'}

// lineCol returns the 1-based line and byte column of window index i. Every
// caller asks about the read position of the moment, so i never decreases.
func (s *Scanner) lineCol(i int) (line, col int) {
	seg := s.buf[s.lnPos:i]
	if n := bytes.Count(seg, newline); n > 0 {
		s.line += n
		s.lineStart = s.base + int64(s.lnPos+bytes.LastIndexByte(seg, '\n')+1)
	}
	s.lnPos = i
	return s.line, int(s.base+int64(i)-s.lineStart) + 1
}

// errorf fails the scan with a ParseError at the read position.
func (s *Scanner) errorf(format string, args ...interface{}) error {
	line, col := s.lineCol(s.pos)
	return s.errorfAt(line, col, format, args...)
}

func (s *Scanner) errorfAt(line, col int, format string, args ...interface{}) error {
	if s.ioErr != nil {
		// The input ended because a read failed, not because it was short.
		s.err = s.ioErr
	} else {
		s.err = &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
	}
	return s.err
}

// ---- Lexical pieces ----

func (s *Scanner) expect(lit string) error {
	if !s.hasPrefix(lit) {
		return s.errorf("expected %q", lit)
	}
	s.pos += len(lit)
	return nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (s *Scanner) skipSpace() {
	for s.more() && isSpace(s.buf[s.pos]) {
		s.pos++
	}
}

// Any byte of a multi-byte UTF-8 sequence (and any stray high byte) is a
// name character, so names are scanned bytewise.
func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= utf8.RuneSelf
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// name scans an XML name. Names read through a sliding window are interned.
func (s *Scanner) name() (string, error) {
	if !s.more() || !isNameStart(s.buf[s.pos]) {
		return "", s.errorf("expected name")
	}
	s.mark = s.pos
	for s.pos++; s.more() && isNameChar(s.buf[s.pos]); s.pos++ {
	}
	a := s.mark
	s.mark = -1
	if s.src != "" {
		return s.src[a:s.pos], nil
	}
	if name, ok := s.names[string(s.buf[a:s.pos])]; ok {
		return name, nil
	}
	name := string(s.buf[a:s.pos])
	if s.names == nil {
		s.names = make(map[string]string)
	}
	if len(s.names) < maxInternedNames {
		s.names[name] = name
	}
	return name, nil
}

// until consumes input through the next delim and returns the window span
// before it, valid until the next fill. With keep false the span is not
// retained and the window does not grow. Running out of input reports
// unterminated at the position the search began.
func (s *Scanner) until(delim string, keep bool, unterminated string) (a, b int, err error) {
	line, col := s.lineCol(s.pos)
	if keep {
		s.mark = s.pos
	}
	for {
		if i := bytes.Index(s.buf[s.pos:], []byte(delim)); i >= 0 {
			b = s.pos + i
			s.pos = b + len(delim)
			if !keep {
				return b, b, nil
			}
			a, s.mark = s.mark, -1
			return a, b, nil
		}
		// No match ends before the last len(delim)-1 bytes.
		if tail := len(s.buf) - len(delim) + 1; tail > s.pos {
			s.pos = tail
		}
		if !s.fill() {
			return 0, 0, s.errorfAt(line, col, "%s", unterminated)
		}
	}
}

// reference resolves the body of an entity or character reference.
func (s *Scanner) reference(ent []byte) (rune, error) {
	r, problem := entityRune(string(ent))
	if problem != "" {
		return 0, s.errorf("%s &%s;", problem, ent)
	}
	return r, nil
}

// attrValue consumes a quoted attribute value and, when build is set,
// returns it decoded. References are resolved after the closing quote has
// been consumed, which is where their errors are reported.
func (s *Scanner) attrValue(build bool) (string, error) {
	if !s.more() || (s.buf[s.pos] != '"' && s.buf[s.pos] != '\'') {
		return "", s.errorf("expected quoted attribute value")
	}
	quote := s.buf[s.pos]
	s.pos++
	s.mark = s.pos
	amp := false
	for ; ; s.pos++ {
		if !s.more() {
			return "", s.errorf("unterminated attribute value")
		}
		c := s.buf[s.pos]
		if c == quote {
			break
		}
		if c == '<' {
			return "", s.errorf("'<' in attribute value")
		}
		amp = amp || c == '&'
	}
	a, b := s.mark, s.pos
	s.mark = -1
	s.pos++
	if !amp {
		if !build {
			return "", nil
		}
		return s.text(a, b), nil
	}
	out := s.textBuf[:0]
	for raw := s.buf[a:b]; ; {
		i := bytes.IndexByte(raw, '&')
		if i < 0 {
			out = append(out, raw...)
			break
		}
		end := bytes.IndexByte(raw[i:], ';')
		if end < 0 {
			return "", s.errorf("unterminated entity in attribute value")
		}
		r, err := s.reference(raw[i+1 : i+end])
		if err != nil {
			return "", err
		}
		out = utf8.AppendRune(append(out, raw[:i]...), r)
		raw = raw[i+end+1:]
	}
	s.textBuf = out[:0]
	if !build {
		return "", nil
	}
	return string(out), nil
}

// ---- Productions ----

// Next returns the next token. After an error or TokEOF every further call
// returns the same outcome.
func (s *Scanner) Next() (Token, error) {
	if s.err != nil {
		return Token{}, s.err
	}
	if s.queuedEnd != "" {
		tok := Token{Kind: TokEndElement, Name: s.queuedEnd}
		s.queuedEnd = ""
		return tok, nil
	}
	if len(s.stack) == 0 && !s.fragment {
		return s.docLevel()
	}
	return s.content(true)
}

// SkipElement consumes the rest of the element whose TokStartElement Next
// returned last — its content and end tag, or the synthetic end of a
// self-closing one — validating all of it — nesting bound, tag
// matching, attribute rules, references, comment/CDATA/PI termination —
// exactly as Next would, because it runs the same productions, but building
// no token. In steady state it does not allocate.
func (s *Scanner) SkipElement() error {
	if s.err != nil {
		return s.err
	}
	if s.queuedEnd != "" {
		s.queuedEnd = ""
		return nil
	}
	if len(s.stack) == 0 {
		return fmt.Errorf("xmltree: SkipElement with no open element")
	}
	for base := len(s.stack); len(s.stack) >= base; {
		if _, err := s.content(false); err != nil {
			return err
		}
	}
	return nil
}

// docLevel produces tokens outside the root element: the XML declaration,
// then comments, PIs, a DOCTYPE, and exactly one root.
func (s *Scanner) docLevel() (Token, error) {
	// A declaration can only open the input, and "<?xml" opens one only as
	// a whole target: a PI such as <?xml-stylesheet?> merely begins with it.
	if s.BytesRead() == 0 && s.hasPrefix("<?xml") && s.ensure(6) && (s.buf[5] == '?' || isSpace(s.buf[5])) {
		if _, _, err := s.until("?>", false, "unterminated XML declaration"); err != nil {
			return Token{}, err
		}
	}
	for {
		s.skipSpace()
		switch {
		case !s.more():
			if !s.seenRoot {
				return Token{}, s.errorf("document has no root element")
			}
			return s.end()
		case s.buf[s.pos] != '<':
			return Token{}, s.errorf("unexpected content %q at document level", string(rune(s.buf[s.pos])))
		case s.hasPrefix("<!DOCTYPE"):
			if err := s.skipDoctype(); err != nil {
				return Token{}, err
			}
		default:
			if tok, ok, err := s.markup(true); ok || err != nil {
				return tok, err
			}
		}
	}
}

// end reports the end of a well-formed input, unless what ended it was a
// failed read.
func (s *Scanner) end() (Token, error) {
	if s.ioErr != nil {
		s.err = s.ioErr
		return Token{}, s.err
	}
	return Token{Kind: TokEOF}, nil
}

// skipDoctype skips <!DOCTYPE …> to the first '>' outside an internal
// subset's brackets.
func (s *Scanner) skipDoctype() error {
	for depth := 0; s.more(); s.pos++ {
		switch s.buf[s.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				s.pos++
				return nil
			}
		}
	}
	return s.errorf("unterminated DOCTYPE")
}

// content produces tokens inside an open element, or at the top level of a
// fragment. A text run coalesces across references and CDATA sections and
// is emitted at the next piece of markup, which the following call scans.
// With build false it returns at each start and end tag, for SkipElement to
// watch the depth, with only the token's kind and name set.
func (s *Scanner) content(build bool) (Token, error) {
	// The run so far is textBuf followed by the literal span from mark, if
	// any; a run with no reference or CDATA in it never touches textBuf.
	s.textBuf = s.textBuf[:0]
	for {
		if !s.more() {
			if len(s.stack) > 0 {
				return Token{}, s.errorf("unterminated element <%s>", s.stack[len(s.stack)-1])
			}
			if tok, ok := s.textToken(); ok {
				return tok, nil
			}
			return s.end()
		}
		switch c := s.buf[s.pos]; {
		case c == '<' && s.hasPrefix("<![CDATA["):
			s.takeLiteral()
			s.pos += len("<![CDATA[")
			a, b, err := s.until("]]>", build, "unterminated CDATA section")
			if err != nil {
				return Token{}, err
			}
			s.textBuf = append(s.textBuf, s.buf[a:b]...)
		case c == '<':
			if tok, ok := s.textToken(); ok {
				return tok, nil
			}
			if s.hasPrefix("</") {
				return s.endTag()
			}
			if tok, ok, err := s.markup(build); ok || err != nil {
				return tok, err
			}
		case c == '&':
			s.takeLiteral()
			// The ';' must come within 12 bytes of the '&'.
			s.ensure(13)
			win := s.buf[s.pos:min(s.pos+13, len(s.buf))]
			end := bytes.IndexByte(win, ';')
			if end < 0 {
				return Token{}, s.errorf("unterminated entity reference")
			}
			r, err := s.reference(win[1:end])
			if err != nil {
				return Token{}, err
			}
			s.pos += end + 1
			if build {
				s.textBuf = utf8.AppendRune(s.textBuf, r)
			}
		default:
			if build && s.mark < 0 {
				s.mark = s.pos
			}
			for s.pos < len(s.buf) && s.buf[s.pos] != '<' && s.buf[s.pos] != '&' {
				s.pos++
			}
		}
	}
}

// takeLiteral moves the pending literal span, if any, into textBuf.
func (s *Scanner) takeLiteral() {
	if s.mark >= 0 {
		s.textBuf = append(s.textBuf, s.buf[s.mark:s.pos]...)
		s.mark = -1
	}
}

// textToken ends the current text run and returns it as a token, unless it
// is empty or TrimWhitespace drops it.
func (s *Scanner) textToken() (Token, bool) {
	a := s.mark
	if len(s.textBuf) > 0 {
		s.takeLiteral()
		a = -1
	}
	s.mark = -1
	run := s.textBuf
	if a >= 0 {
		run = s.buf[a:s.pos]
	}
	s.textBuf = s.textBuf[:0]
	if len(run) == 0 || (s.opts.TrimWhitespace && len(bytes.TrimSpace(run)) == 0) {
		return Token{}, false
	}
	if a >= 0 {
		return Token{Kind: TokText, Data: s.text(a, s.pos)}, true
	}
	return Token{Kind: TokText, Data: string(run)}, true
}

// markup scans the comment, processing instruction or start tag at the
// read position. ok is false when it yields no token: a dropped comment,
// or a comment or PI passed over with build false.
func (s *Scanner) markup(build bool) (tok Token, ok bool, err error) {
	switch {
	case s.hasPrefix("<!--"):
		s.pos += len("<!--")
		build = build && !s.opts.DropComments
		a, b, err := s.until("-->", build, "unterminated comment")
		if err != nil || !build {
			return Token{}, false, err
		}
		return Token{Kind: TokComment, Data: s.text(a, b)}, true, nil
	case s.hasPrefix("<?"):
		s.pos += len("<?")
		target, err := s.name()
		if err != nil {
			return Token{}, false, err
		}
		a, b, err := s.until("?>", build, "unterminated processing instruction")
		if err != nil || !build {
			return Token{}, false, err
		}
		a = b - len(bytes.TrimLeft(s.buf[a:b], " \t\r\n"))
		return Token{Kind: TokPI, Name: target, Data: s.text(a, b)}, true, nil
	}
	tok, err = s.startTag(build)
	return tok, err == nil, err
}

// startTag consumes "<name attrs…>" or "<name attrs…/>". A self-closing
// element queues its synthetic end token when building and is simply done
// when not.
func (s *Scanner) startTag(build bool) (Token, error) {
	if len(s.stack) == 0 && !s.fragment {
		if s.seenRoot {
			return Token{}, s.errorf("multiple root elements")
		}
		s.seenRoot = true
	}
	if len(s.stack) >= s.maxDepth() {
		return Token{}, s.errorf("element nesting exceeds %d levels", s.maxDepth())
	}
	s.pos++ // '<'
	name, err := s.name()
	if err != nil {
		return Token{}, err
	}
	s.attrs = s.attrs[:0]
	for {
		s.skipSpace()
		if !s.more() {
			return Token{}, s.errorf("unterminated start tag <%s", name)
		}
		if c := s.buf[s.pos]; c == '>' || c == '/' {
			break
		}
		aname, err := s.name()
		if err != nil {
			return Token{}, err
		}
		s.skipSpace()
		if err := s.expect("="); err != nil {
			return Token{}, err
		}
		s.skipSpace()
		aval, err := s.attrValue(build)
		if err != nil {
			return Token{}, err
		}
		for _, a := range s.attrs {
			if a.Name == aname {
				return Token{}, s.errorf("duplicate attribute %q on <%s>", aname, name)
			}
		}
		s.attrs = append(s.attrs, ScanAttr{Name: aname, Value: aval})
	}
	tok := Token{Kind: TokStartElement, Name: name, SelfClose: s.buf[s.pos] == '/'}
	if tok.SelfClose {
		s.pos++
	}
	if err := s.expect(">"); err != nil {
		return Token{}, err
	}
	switch {
	case !tok.SelfClose:
		s.stack = append(s.stack, name)
	case build:
		s.queuedEnd = name
	}
	if !build {
		s.elemsSkipped++
	} else if len(s.attrs) > 0 {
		tok.Attrs = append([]ScanAttr(nil), s.attrs...)
	}
	return tok, nil
}

// endTag consumes "</name>" and checks it against the open element.
func (s *Scanner) endTag() (Token, error) {
	if len(s.stack) == 0 {
		return Token{}, s.errorf("unexpected end tag at fragment level")
	}
	s.pos += len("</")
	got, err := s.name()
	if err != nil {
		return Token{}, err
	}
	if want := s.stack[len(s.stack)-1]; got != want {
		return Token{}, s.errorf("end tag </%s> does not match <%s>", got, want)
	}
	s.skipSpace()
	if err := s.expect(">"); err != nil {
		return Token{}, err
	}
	s.stack = s.stack[:len(s.stack)-1]
	return Token{Kind: TokEndElement, Name: got}, nil
}
