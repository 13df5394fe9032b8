package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
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
// target; Data holds text, comment data, or PI data. Attrs is the scanner's
// own list and, over a reader, Data and each Value are views of its buffers:
// all are valid until the next call, so copy what you keep. Names are stable.
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
	// check, and is the token's Attrs until the next call.
	attrs []ScanAttr
	// dropText, set by the builder for a frame whose text it will not keep,
	// has a text run checked and passed over instead of returned.
	dropText bool
	// textBuf holds text being decoded: a content run that contains
	// references or CDATA, or a start tag's values that contain references.
	// The two never overlap, because pending text is emitted before a tag.
	textBuf []byte
	// pinned: the start tag holds views of earlier values in the window, so
	// fill moves the unread bytes to a fresh array instead of over them.
	pinned       bool
	tok          Token // the token next produced
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
		if s.pinned {
			s.buf = append(make([]byte, 0, cap(s.buf)), s.buf[keep:]...)
		} else {
			s.buf = s.buf[:copy(s.buf, s.buf[keep:])]
		}
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

// upTo returns b up to its first c.
func upTo(b []byte, c byte) []byte {
	if i := bytes.IndexByte(b, c); i >= 0 {
		return b[:i]
	}
	return b
}

// at returns the unread byte i ahead, or 0 past the end of input.
func (s *Scanner) at(i int) byte {
	if !s.ensure(i + 1) {
		return 0
	}
	return s.buf[s.pos+i]
}

// view returns window or decoded textBuf bytes as a token string: over a
// reader a view, valid until the next call; in memory a substring of the
// input, or a copy of decoded bytes.
func (s *Scanner) view(b []byte, decoded bool) string {
	if decoded && s.src != "" {
		return string(b)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// stable returns v, a token string, as one that outlives the token.
func (s *Scanner) stable(v string) string {
	if s.src != "" {
		return v
	}
	return strings.Clone(v)
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

func (s *Scanner) expect(c byte) error {
	if !s.more() || s.buf[s.pos] != c {
		return s.errorf("expected %q", string(rune(c)))
	}
	s.pos++
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

// IsName reports whether s is a name by the rule the scanner reads names
// by, so that a node named s serializes to markup that parses back.
func IsName(s string) bool {
	if s == "" || !isNameStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isNameChar(s[i]) {
			return false
		}
	}
	return true
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
// returns it decoded: a view of the window, or of textBuf when it holds
// references. References are resolved after the closing quote has been
// consumed, which is where their errors are reported.
func (s *Scanner) attrValue(build bool) (string, error) {
	if !s.more() || (s.buf[s.pos] != '"' && s.buf[s.pos] != '\'') {
		return "", s.errorf("expected quoted attribute value")
	}
	quote := s.buf[s.pos]
	s.pos++
	s.mark = s.pos
	amp := false
	for {
		run := upTo(s.buf[s.pos:], quote)
		closed := s.pos+len(run) < len(s.buf)
		if i := bytes.IndexByte(run, '<'); i >= 0 {
			s.pos += i
			return "", s.errorf("'<' in attribute value")
		}
		amp = amp || bytes.IndexByte(run, '&') >= 0
		s.pos += len(run)
		if closed {
			break
		}
		if !s.fill() {
			return "", s.errorf("unterminated attribute value")
		}
	}
	a, b := s.mark, s.pos
	s.mark = -1
	s.pos++
	if !amp {
		if !build {
			return "", nil
		}
		return s.view(s.buf[a:b], false), nil
	}
	out, start := s.textBuf, len(s.textBuf)
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
	if !build {
		s.textBuf = out[:start] // checked, not kept
		return "", nil
	}
	s.textBuf = out
	return s.view(out[start:], true), nil
}

// ---- Productions ----

// Next returns the next token. After an error or TokEOF every further call
// returns the same outcome.
func (s *Scanner) Next() (Token, error) {
	if err := s.next(); err != nil {
		return Token{}, err
	}
	return s.tok, nil
}

// next is Next producing into s.tok, which the builder reads in place.
func (s *Scanner) next() error {
	if s.err != nil {
		return s.err
	}
	if s.queuedEnd != "" {
		s.tok = Token{Kind: TokEndElement, Name: s.queuedEnd}
		s.queuedEnd = ""
		return nil
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
		if err := s.content(false); err != nil {
			return err
		}
	}
	return nil
}

// docLevel produces tokens outside the root element: the XML declaration,
// then comments, PIs, a DOCTYPE, and exactly one root.
func (s *Scanner) docLevel() error {
	// A declaration can only open the input, and "<?xml" opens one only as
	// a whole target: a PI such as <?xml-stylesheet?> merely begins with it.
	if s.BytesRead() == 0 && s.hasPrefix("<?xml") && s.ensure(6) && (s.buf[5] == '?' || isSpace(s.buf[5])) {
		if _, _, err := s.until("?>", false, "unterminated XML declaration"); err != nil {
			return err
		}
	}
	for {
		s.skipSpace()
		switch {
		case !s.more():
			if !s.seenRoot {
				return s.errorf("document has no root element")
			}
			return s.end()
		case s.buf[s.pos] != '<':
			return s.errorf("unexpected content %q at document level", string(rune(s.buf[s.pos])))
		case s.hasPrefix("<!DOCTYPE"):
			if err := s.skipDoctype(); err != nil {
				return err
			}
		default:
			if ok, err := s.markup(true); ok || err != nil {
				return err
			}
		}
	}
}

// end reports the end of a well-formed input, unless what ended it was a
// failed read.
func (s *Scanner) end() error {
	if s.ioErr != nil {
		s.err = s.ioErr
		return s.err
	}
	s.tok = Token{Kind: TokEOF}
	return nil
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
// With build false it produces nothing and returns at each end tag, for
// SkipElement to watch the depth.
func (s *Scanner) content(build bool) error {
	// The run so far is textBuf followed by the literal span from mark, if
	// any; a run with no reference or CDATA in it never touches textBuf. A
	// run nobody keeps stays empty, so textToken yields nothing for it.
	keepText := build && !s.dropText
	s.textBuf = s.textBuf[:0]
	for {
		if !s.more() {
			if len(s.stack) > 0 {
				return s.errorf("unterminated element <%s>", s.stack[len(s.stack)-1])
			}
			if s.textToken() {
				return nil
			}
			return s.end()
		}
		switch s.buf[s.pos] {
		case '<':
			next := s.at(1)
			if next == '!' && s.hasPrefix("<![CDATA[") {
				s.takeLiteral()
				s.pos += len("<![CDATA[")
				a, b, err := s.until("]]>", keepText, "unterminated CDATA section")
				if err != nil {
					return err
				}
				s.textBuf = append(s.textBuf, s.buf[a:b]...)
				continue
			}
			if s.textToken() {
				return nil
			}
			if next == '/' {
				return s.endTag()
			}
			if ok, err := s.markup(build); ok || err != nil {
				return err
			}
		case '&':
			s.takeLiteral()
			// The ';' must come within 12 bytes of the '&'.
			s.ensure(13)
			win := s.buf[s.pos:min(s.pos+13, len(s.buf))]
			end := bytes.IndexByte(win, ';')
			if end < 0 {
				return s.errorf("unterminated entity reference")
			}
			r, err := s.reference(win[1:end])
			if err != nil {
				return err
			}
			s.pos += end + 1
			if keepText {
				s.textBuf = utf8.AppendRune(s.textBuf, r)
			}
		default:
			if keepText && s.mark < 0 {
				s.mark = s.pos
			}
			s.pos += len(upTo(upTo(s.buf[s.pos:], '<'), '&'))
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

// textToken ends the current text run and produces it as a token, unless it
// is empty or TrimWhitespace drops it.
func (s *Scanner) textToken() bool {
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
		return false
	}
	s.tok = Token{Kind: TokText, Data: s.view(run, a < 0)}
	return true
}

// markup scans the comment, processing instruction or start tag at the
// read position, by the byte after '<'. ok is false when it yields no
// token, as with build false.
func (s *Scanner) markup(build bool) (ok bool, err error) {
	switch s.at(1) {
	case '!':
		if !s.hasPrefix("<!--") {
			break // not a name start: the start tag reports it
		}
		s.pos += len("<!--")
		a, b, err := s.until("-->", build, "unterminated comment")
		if err != nil || !build {
			return false, err
		}
		s.tok = Token{Kind: TokComment, Data: s.view(s.buf[a:b], false)}
		return true, nil
	case '?':
		s.pos += len("<?")
		target, err := s.name()
		if err != nil {
			return false, err
		}
		a, b, err := s.until("?>", build, "unterminated processing instruction")
		if err != nil || !build {
			return false, err
		}
		data := bytes.TrimLeft(s.buf[a:b], " \t\r\n")
		s.tok = Token{Kind: TokPI, Name: target, Data: s.view(data, false)}
		return true, nil
	}
	err = s.startTag(build)
	return build && err == nil, err
}

// startTag consumes "<name attrs…>" or "<name attrs…/>". A self-closing
// element queues its synthetic end token when building and is simply done
// when not.
func (s *Scanner) startTag(build bool) error {
	if len(s.stack) == 0 && !s.fragment {
		if s.seenRoot {
			return s.errorf("multiple root elements")
		}
		s.seenRoot = true
	}
	if len(s.stack) >= s.maxDepth() {
		return s.errorf("element nesting exceeds %d levels", s.maxDepth())
	}
	s.pos++ // '<'
	name, err := s.name()
	if err != nil {
		return err
	}
	s.attrs, s.textBuf = s.attrs[:0], s.textBuf[:0]
	for {
		s.skipSpace()
		if !s.more() {
			return s.errorf("unterminated start tag <%s", name)
		}
		if c := s.buf[s.pos]; c == '>' || c == '/' {
			break
		}
		aname, err := s.name()
		if err != nil {
			return err
		}
		s.skipSpace()
		if err := s.expect('='); err != nil {
			return err
		}
		s.skipSpace()
		aval, err := s.attrValue(build)
		if err != nil {
			return err
		}
		for _, a := range s.attrs {
			if a.Name == aname {
				return s.errorf("duplicate attribute %q on <%s>", aname, name)
			}
		}
		s.attrs = append(s.attrs, ScanAttr{Name: aname, Value: aval})
		s.pinned = build
	}
	selfClose := s.buf[s.pos] == '/'
	if selfClose {
		s.pos++
	}
	if err := s.expect('>'); err != nil {
		return err
	}
	s.pinned = false
	switch {
	case !selfClose:
		s.stack = append(s.stack, name)
	case build:
		s.queuedEnd = name
	}
	if !build {
		s.elemsSkipped++
		return nil
	}
	s.tok = Token{Kind: TokStartElement, Name: name, Attrs: s.attrs, SelfClose: selfClose}
	return nil
}

// endTag consumes "</name>" and checks it against the open element, by a
// comparison with its name before falling back to scanning one.
func (s *Scanner) endTag() error {
	if len(s.stack) == 0 {
		return s.errorf("unexpected end tag at fragment level")
	}
	s.pos += len("</")
	want := s.stack[len(s.stack)-1]
	if n := len(want); s.ensure(n+1) && string(s.buf[s.pos:s.pos+n]) == want && !isNameChar(s.buf[s.pos+n]) {
		s.pos += n
	} else if got, err := s.name(); err != nil {
		return err
	} else if got != want {
		return s.errorf("end tag </%s> does not match <%s>", got, want)
	}
	s.skipSpace()
	if err := s.expect('>'); err != nil {
		return err
	}
	s.stack = s.stack[:len(s.stack)-1]
	s.tok = Token{Kind: TokEndElement, Name: want}
	return nil
}
