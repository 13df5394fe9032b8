package xmltree

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// grammarCase is one input and what parsing it must return under each of
// grammarOpts: "ok <node count> <serialized tree>" or the ParseError text,
// which carries line:col. want holds one result per option set, or a single
// result when all three agree.
//
// The expectations are not this code's opinion of itself. They were captured
// from the last commit that had a recursive-descent string parser beside
// the scanner (where Parse and ParseReader were checked to agree on every
// entry) and pinned as literals, so "the merge changed no tree, message or
// position" is checked against that commit. Three entries differ from it on
// purpose, all from one fix: a PI whose target merely begins with "xml"
// used to be swallowed as an XML declaration (<?xml-stylesheet …?> and
// <?xmlfoo?> lost their PI, and a bare "<?xml" reported an unterminated
// declaration at 1:1).
type grammarCase struct {
	in   string
	want []string
}

var grammarOpts = []ParseOptions{
	{},
	{TrimWhitespace: true},
	{MaxDepth: 3},
}

var grammarCases = []grammarCase{
	{"<a/>", []string{"ok 2 <a/>"}},
	{"<a></a>", []string{"ok 2 <a/>"}},
	{"<a>text</a>", []string{"ok 3 <a>text</a>"}},
	{"<a b=\"1\" c=\"2\">x<d/>y</a>", []string{"ok 7 <a b=\"1\" c=\"2\">x<d/>y</a>"}},
	{"<?xml version=\"1.0\"?><a/>", []string{"ok 2 <a/>"}},
	{"<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ELEMENT a EMPTY>]>\n<!-- before --><a><!-- in --><?pi  data?></a><!-- after -->", []string{
		"ok 6 <!-- before --><a><!-- in --><?pi data?></a><!-- after -->",
		"ok 6 <!-- before --><a><!-- in --><?pi data?></a><!-- after -->",
		"ok 6 <!-- before --><a><!-- in --><?pi data?></a><!-- after -->",
	}},
	{"<a>x &lt;&gt;&amp;&quot;&apos; &#65;&#x42; y</a>", []string{"ok 3 <a>x &lt;&gt;&amp;\"' AB y</a>"}},
	{"<a><![CDATA[<raw&stuff>]]></a>", []string{"ok 3 <a>&lt;raw&amp;stuff&gt;</a>"}},
	{"<a>pre<![CDATA[mid]]>post</a>", []string{"ok 3 <a>premidpost</a>"}},
	{"<a>x]]<![CDATA[>y]]>z</a>", []string{"ok 3 <a>x]]&gt;yz</a>"}},
	{"<a b=\"&amp;&#x3C;\"/>", []string{"ok 3 <a b=\"&amp;&lt;\"/>"}},
	{"<a b='sq'/>", []string{"ok 3 <a b=\"sq\"/>"}},
	{"<a>\n  <b>1</b>\n  <b>2</b>\n</a>", []string{
		"ok 9 <a>\n  <b>1</b>\n  <b>2</b>\n</a>",
		"ok 6 <a><b>1</b><b>2</b></a>",
		"ok 9 <a>\n  <b>1</b>\n  <b>2</b>\n</a>",
	}},
	{"<ns:a ns:b=\"1\"><ns:c/></ns:a>", []string{"ok 4 <ns:a ns:b=\"1\"><ns:c/></ns:a>"}},
	{"<a><b><c><d>deep</d></c></b></a>", []string{
		"ok 6 <a><b><c><d>deep</d></c></b></a>",
		"ok 6 <a><b><c><d>deep</d></c></b></a>",
		"xml: 1:10: element nesting exceeds 3 levels",
	}},
	{"<a - comment with --- dashes -->x</a>", []string{"xml: 1:4: expected name"}},
	{"<a><!-- - -- ---></a>", []string{
		"ok 3 <a><!-- - -- ---></a>",
		"ok 3 <a><!-- - -- ---></a>",
		"ok 3 <a><!-- - -- ---></a>",
	}},
	{"<a><?t?></a>", []string{"ok 3 <a><?t?></a>"}},
	{"<a><?t   leading ws?></a>", []string{"ok 3 <a><?t leading ws?></a>"}},
	{"", []string{"xml: 1:1: document has no root element"}},
	{"   ", []string{"xml: 1:4: document has no root element"}},
	{"<a>", []string{"xml: 1:4: unterminated element <a>"}},
	{"<a><b></a></b>", []string{"xml: 1:10: end tag </a> does not match <b>"}},
	{"<a></b>", []string{"xml: 1:7: end tag </b> does not match <a>"}},
	{"<a", []string{"xml: 1:3: unterminated start tag <a"}},
	{"<a b></a>", []string{"xml: 1:5: expected \"=\""}},
	{"<a b=></a>", []string{"xml: 1:6: expected quoted attribute value"}},
	{"<a b=\"x></a>", []string{"xml: 1:9: '<' in attribute value"}},
	{"<a b=\"x\" b=\"y\"/>", []string{"xml: 1:15: duplicate attribute \"b\" on <a>"}},
	{"<a>&unknown;</a>", []string{"xml: 1:4: unknown entity &unknown;"}},
	{"<a>&#xZZ;</a>", []string{"xml: 1:4: bad character reference &#xZZ;"}},
	{"<a>&#99999999999;</a>", []string{"xml: 1:4: unterminated entity reference"}},
	{"<a>&noend</a>", []string{"xml: 1:4: unterminated entity reference"}},
	{"<a b=\"&bad;\"/>", []string{"xml: 1:13: unknown entity &bad;"}},
	{"<a b=\"&noend\"/>", []string{"xml: 1:14: unterminated entity in attribute value"}},
	{"<a b=\"<\"/>", []string{"xml: 1:7: '<' in attribute value"}},
	{"<a/><b/>", []string{"xml: 1:5: multiple root elements"}},
	{"text at top", []string{"xml: 1:1: unexpected content \"t\" at document level"}},
	{"<a><!-- unterminated</a>", []string{"xml: 1:8: unterminated comment"}},
	{"<a><![CDATA[unterminated</a>", []string{"xml: 1:13: unterminated CDATA section"}},
	{"<a><?pi unterminated</a>", []string{"xml: 1:8: unterminated processing instruction"}},
	{"<?xml unterminated", []string{"xml: 1:1: unterminated XML declaration"}},
	{"<!DOCTYPE unterminated", []string{"xml: 1:23: unterminated DOCTYPE"}},
	{"<1bad/>", []string{"xml: 1:2: expected name"}},
	{"<a><1bad/></a>", []string{"xml: 1:5: expected name"}},
	{"<a>x<!DOCTYPE b></a>", []string{"xml: 1:6: expected name"}},
	{"<?xml-stylesheet href=\"a.xsl\"?><a/>", []string{"ok 3 <?xml-stylesheet href=\"a.xsl\"?><a/>"}},
	{"<?xmlfoo?><a/>", []string{"ok 3 <?xmlfoo?><a/>"}},
	{"<?xml?><a/>", []string{"ok 2 <a/>"}},
	{"<?xml", []string{"xml: 1:6: unterminated processing instruction"}},
	{" <?xml version=\"1.0\"?><a/>", []string{"ok 3 <?xml version=\"1.0\"?><a/>"}},
	{"<a><?xml foo?></a>", []string{"ok 3 <a><?xml foo?></a>"}},
	{"<a b=\"1\"c=\"2\"/>", []string{"ok 4 <a b=\"1\" c=\"2\"/>"}},
	{"<a/ >", []string{"xml: 1:4: expected \">\""}},
	{"<a b = \"1\" />", []string{"ok 3 <a b=\"1\"/>"}},
	{"<a></a >", []string{"ok 2 <a/>"}},
	{"<a>&#0;</a>", []string{"ok 3 <a>\x00</a>"}},
	{"<élément ä=\"ü\">x</élément>", []string{"ok 4 <élément ä=\"ü\">x</élément>"}},
	{"<a>\xff\xfe</a>", []string{"ok 3 <a>\xff\xfe</a>"}},
	{"<a\xff/>", []string{"ok 2 <a\xff/>"}},
	{"<a>]]></a>", []string{"ok 3 <a>]]&gt;</a>"}},
	{"<a>\u00a0</a>", []string{
		"ok 3 <a>\u00a0</a>",
		"ok 2 <a/>",
		"ok 3 <a>\u00a0</a>",
	}},
	{"<a> \u00a0 <b/> \u2003 </a>", []string{
		"ok 5 <a> \u00a0 <b/> \u2003 </a>",
		"ok 3 <a><b/></a>",
		"ok 5 <a> \u00a0 <b/> \u2003 </a>",
	}},
	{"<a><![CDATA[]]></a>", []string{"ok 2 <a/>"}},
	{"<a> <![CDATA[ ]]> </a>", []string{
		"ok 3 <a>   </a>",
		"ok 2 <a/>",
		"ok 3 <a>   </a>",
	}},
	{"<a> <![CDATA[x]]> </a>", []string{"ok 3 <a> x </a>"}},
	{"<a> &#32; </a>", []string{
		"ok 3 <a>   </a>",
		"ok 2 <a/>",
		"ok 3 <a>   </a>",
	}},
	{"<!-- c --><a/>", []string{
		"ok 3 <!-- c --><a/>",
		"ok 3 <!-- c --><a/>",
		"ok 3 <!-- c --><a/>",
	}},
	{"<a/>\n<!-- t -->\n<?p q?>\n", []string{
		"ok 4 <a/><!-- t --><?p q?>",
		"ok 4 <a/><!-- t --><?p q?>",
		"ok 4 <a/><!-- t --><?p q?>",
	}},
	{"<a><b/></a>trailing", []string{"xml: 1:12: unexpected content \"t\" at document level"}},
	{"</a>", []string{"xml: 1:2: expected name"}},
	{"<a><![CDATA[x]]</a>", []string{"xml: 1:13: unterminated CDATA section"}},
	{"<![CDATA[x]]><a/>", []string{"xml: 1:2: expected name"}},
	{"<a>&#x110000;</a>", []string{"ok 3 <a>�</a>"}},
	{"<a>&#xD800;</a>", []string{"ok 3 <a>�</a>"}},
	{"<a>&#xFFFFFFFF;</a>", []string{"ok 3 <a>�</a>"}},
	{"<a>&#x100000000;</a>", []string{"xml: 1:4: bad character reference &#x100000000;"}},
	{"<a>&#+65;</a>", []string{"xml: 1:4: bad character reference &#+65;"}},
	{"<a>&#6_5;</a>", []string{"xml: 1:4: bad character reference &#6_5;"}},
	{"&amp;", []string{"xml: 1:1: unexpected content \"&\" at document level"}},
	{"<a>&</a>", []string{"xml: 1:4: unterminated entity reference"}},
	{"<a>&;</a>", []string{"xml: 1:4: unknown entity &;"}},
	{"<a>&#;</a>", []string{"xml: 1:4: bad character reference &#;"}},
	{"<a>&#x;</a>", []string{"xml: 1:4: bad character reference &#x;"}},
	{"<a>&#X41;</a>", []string{"ok 3 <a>A</a>"}},
	{"<a>&a<b;</a>", []string{"xml: 1:4: unknown entity &a<b;"}},
	{"<a>&twelvechars;</a>", []string{"xml: 1:4: unknown entity &twelvechars;"}},
	{"<a>&elevenchars;</a>", []string{"xml: 1:4: unknown entity &elevenchars;"}},
	{"<a>&thirteenchars;</a>", []string{"xml: 1:4: unterminated entity reference"}},
	{"<a b=\"&#x41;&lt;x&gt;&apos;&quot;\"/>", []string{"ok 3 <a b=\"A&lt;x&gt;'&quot;\"/>"}},
	{"<a b=\"1\" c='2' b=\"3\"/>", []string{"xml: 1:21: duplicate attribute \"b\" on <a>"}},
	{"<a b=\"&averyveryverylongentityname;\"/>", []string{"xml: 1:37: unknown entity &averyveryverylongentityname;"}},
	{"<a b=\"x&amp\"/>", []string{"xml: 1:13: unterminated entity in attribute value"}},
	{"<a b=\"&#xZZ;\"/>", []string{"xml: 1:14: bad character reference &#xZZ;"}},
	{"<a>\n<b>\n</c>", []string{"xml: 3:4: end tag </c> does not match <b>"}},
	{"<a\n b=\"1\"\n c='2'\n>\n</a\n>", []string{
		"ok 5 <a b=\"1\" c=\"2\">\n</a>",
		"ok 4 <a b=\"1\" c=\"2\"/>",
		"ok 5 <a b=\"1\" c=\"2\">\n</a>",
	}},
	{"<a\n b=\"1\"\n b='2'/>", []string{"xml: 3:7: duplicate attribute \"b\" on <a>"}},
	{"<!DOCTYPE a><a/>", []string{"ok 2 <a/>"}},
	{"<!DOCTYPE a [ <!ENTITY x \"]>\"> ]><a/>", []string{"xml: 1:29: unexpected content \"\\\"\" at document level"}},
	{"<!DOCTYPE a ]]><a/>", []string{"ok 2 <a/>"}},
	{"<a/><!DOCTYPE a>", []string{"ok 2 <a/>"}},
	{"<a><!----></a>", []string{
		"ok 3 <a><!----></a>",
		"ok 3 <a><!----></a>",
		"ok 3 <a><!----></a>",
	}},
	{"<a><!---></a>", []string{"xml: 1:8: unterminated comment"}},
	{"<a><!-></a>", []string{"xml: 1:5: expected name"}},
	{"<a><?pi?><?pi ?><?pi x ?><?pi  ?></a>", []string{"ok 6 <a><?pi?><?pi?><?pi x ?><?pi?></a>"}},
	{"<a><??></a>", []string{"xml: 1:6: expected name"}},
	{"<a><?pi", []string{"xml: 1:8: unterminated processing instruction"}},
	{"<a><b/><c></c><d/></a>", []string{"ok 5 <a><b/><c/><d/></a>"}},
	{"<a><b><c/></b></a>", []string{"ok 4 <a><b><c/></b></a>"}},
	{"<a><b><c><d/></c></b></a>", []string{
		"ok 5 <a><b><c><d/></c></b></a>",
		"ok 5 <a><b><c><d/></c></b></a>",
		"xml: 1:10: element nesting exceeds 3 levels",
	}},
	{"<a><b><c>x</c></b><b><c><d>y</d></c></b></a>", []string{
		"ok 9 <a><b><c>x</c></b><b><c><d>y</d></c></b></a>",
		"ok 9 <a><b><c>x</c></b><b><c><d>y</d></c></b></a>",
		"xml: 1:25: element nesting exceeds 3 levels",
	}},
	{"<a><b></b><b></b><b></b></a>", []string{"ok 5 <a><b/><b/><b/></a>"}},
	{"<a:b:c xmlns:a=\"u\"/>", []string{"ok 3 <a:b:c xmlns:a=\"u\"/>"}},
	{"<_a-b.c9/>", []string{"ok 2 <_a-b.c9/>"}},
	{"<-a/>", []string{"xml: 1:2: expected name"}},
	{"<a 9=\"1\"/>", []string{"xml: 1:4: expected name"}},
	{"<a b=\"1\" />x", []string{"xml: 1:12: unexpected content \"x\" at document level"}},
	{"<a>x</a><!-- c -->y", []string{"xml: 1:19: unexpected content \"y\" at document level"}},
	{"\n\n  <a/>", []string{"ok 2 <a/>"}},
	{"\ufeff<a/>", []string{"xml: 1:1: unexpected content \"ï\" at document level"}},
	{"<a>\r\nx\r</a>", []string{"ok 3 <a>&#13;\nx&#13;</a>"}},
	{"<a b=\"\n\t\"/>", []string{"ok 3 <a b=\"&#10;&#9;\"/>"}},
	{"<a>a&lt;b<!-- c -->c&gt;d<![CDATA[e]]>f<?p?>g</a>", []string{
		"ok 7 <a>a&lt;b<!-- c -->c&gt;def<?p?>g</a>",
		"ok 7 <a>a&lt;b<!-- c -->c&gt;def<?p?>g</a>",
		"ok 7 <a>a&lt;b<!-- c -->c&gt;def<?p?>g</a>",
	}},
	{"<a><!-- a --><!-- b --></a>", []string{
		"ok 4 <a><!-- a --><!-- b --></a>",
		"ok 4 <a><!-- a --><!-- b --></a>",
		"ok 4 <a><!-- a --><!-- b --></a>",
	}},
	{"<a> <!-- a --> </a>", []string{
		"ok 5 <a> <!-- a --> </a>",
		"ok 3 <a><!-- a --></a>",
		"ok 5 <a> <!-- a --> </a>",
	}},
	{"<a></a", []string{"xml: 1:7: expected \">\""}},
	{"<a></", []string{"xml: 1:6: expected name"}},
	{"<a><", []string{"xml: 1:5: expected name"}},
	{"<", []string{"xml: 1:2: expected name"}},
	{"<a b=\"1", []string{"xml: 1:8: unterminated attribute value"}},
	{"<a b='1\"", []string{"xml: 1:9: unterminated attribute value"}},
	{"<a b", []string{"xml: 1:5: expected \"=\""}},
	{"<a b=", []string{"xml: 1:6: expected quoted attribute value"}},
	{"<a/", []string{"xml: 1:4: expected \">\""}},
	{"<a b=\"1\"/", []string{"xml: 1:10: expected \">\""}},
	{"<!", []string{"xml: 1:2: expected name"}},
	{"<!-", []string{"xml: 1:2: expected name"}},
	{"<!--", []string{"xml: 1:5: unterminated comment"}},
	{"<a><!", []string{"xml: 1:5: expected name"}},
	{"<a><![CDATA", []string{"xml: 1:5: expected name"}},
	{"<a><![CDATA[", []string{"xml: 1:13: unterminated CDATA section"}},
	{"<a>&#", []string{"xml: 1:4: unterminated entity reference"}},
	{"<?", []string{"xml: 1:3: expected name"}},
	{"<?x", []string{"xml: 1:4: unterminated processing instruction"}},
	{"<!DOCTYPE", []string{"xml: 1:10: unterminated DOCTYPE"}},
	{"<!DOCTYP a><a/>", []string{"xml: 1:2: expected name"}},
}

// fragmentCases pin ParseFragment the same way, as "ok <count>
// kind:serialized|…" or the error text.
var fragmentCases = []struct{ in, want string }{
	{"", "ok 0 "},
	{"text", "ok 1 text():text"},
	{"  ", "ok 1 text():  "},
	{"a<b/>c", "ok 3 text():a|element():<b/>|text():c"},
	{"<b/><c>x</c>", "ok 2 element():<b/>|element():<c>x</c>"},
	{"x &amp; y <![CDATA[<z>]]>", "ok 1 text():x &amp; y &lt;z&gt;"},
	{"<!-- c --><?pi d?>", "ok 2 comment():<!-- c -->|processing-instruction():<?pi d?>"},
	{"<?xml version=\"1.0\"?><a/>", "ok 2 processing-instruction():<?xml version=\"1.0\"?>|element():<a/>"},
	{"</a>", "xml: 1:1: unexpected end tag at fragment level"},
	{"x</a>", "xml: 1:2: unexpected end tag at fragment level"},
	{"<a>", "xml: 1:4: unterminated element <a>"},
	{"<a><b>", "xml: 1:7: unterminated element <b>"},
	{"<a>x", "xml: 1:5: unterminated element <a>"},
	{"<a></b>", "xml: 1:7: end tag </b> does not match <a>"},
	{"<!DOCTYPE a>", "xml: 1:2: expected name"},
	{"&bad;", "xml: 1:1: unknown entity &bad;"},
	{"&noend", "xml: 1:1: unterminated entity reference"},
	{"<a b=\"1\" b=\"2\"/>", "xml: 1:15: duplicate attribute \"b\" on <a>"},
	{"<i>one</i> and <b>two</b>", "ok 3 element():<i>one</i>|text(): and |element():<b>two</b>"},
	{"line1\nline2 </x>", "xml: 2:7: unexpected end tag at fragment level"},
	{"<p>\n<q>", "xml: 2:4: unterminated element <q>"},
}

func parseResult(doc *Node, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("ok %d %s", CountNodes(doc), doc.String())
}

// chunkReader hands out r's bytes in seeded chunks of 1–7 bytes.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(7); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// inputModes are the ways one input can reach the scanner. The one-byte and
// chunked readers make every production straddle a refill somewhere; the
// two-byte window also makes every span longer than that outgrow it.
var inputModes = []struct {
	name string
	scan func(in string, opts ParseOptions) *Scanner
}{
	{"in-memory", func(in string, opts ParseOptions) *Scanner {
		s := scanString(in, opts, false)
		return &s
	}},
	{"reader", func(in string, opts ParseOptions) *Scanner {
		return NewScanner(strings.NewReader(in), opts)
	}},
	{"one-byte", func(in string, opts ParseOptions) *Scanner {
		return NewScanner(iotest.OneByteReader(strings.NewReader(in)), opts)
	}},
	{"chunks", func(in string, opts ParseOptions) *Scanner {
		return NewScanner(&chunkReader{strings.NewReader(in), rand.New(rand.NewSource(int64(len(in))))}, opts)
	}},
	{"tiny-window", func(in string, opts ParseOptions) *Scanner {
		s := NewScanner(strings.NewReader(in), opts)
		s.buf = make([]byte, 0, 2)
		return s
	}},
}

func TestGrammarPinned(t *testing.T) {
	for _, c := range grammarCases {
		for i, opts := range grammarOpts {
			want := c.want[0]
			if len(c.want) > 1 {
				want = c.want[i]
			}
			for _, m := range inputModes {
				doc, _, err := buildTree(m.scan(c.in, opts), nil, nil)
				if got := parseResult(doc, err); got != want {
					t.Errorf("%q %+v %s:\n got %s\nwant %s", c.in, opts, m.name, got, want)
				}
			}
			// The exported entry points are the same builder.
			if got := parseResult(ParseWith(c.in, opts)); got != want {
				t.Errorf("ParseWith(%q, %+v):\n got %s\nwant %s", c.in, opts, got, want)
			}
			if got := parseResult(ParseReaderWith(strings.NewReader(c.in), opts)); got != want {
				t.Errorf("ParseReaderWith(%q, %+v):\n got %s\nwant %s", c.in, opts, got, want)
			}
		}
	}
}

func TestDepthLimit(t *testing.T) {
	deep := strings.Repeat("<a>", 50) + strings.Repeat("</a>", 50)
	for _, m := range inputModes {
		_, _, err := buildTree(m.scan(deep, ParseOptions{MaxDepth: 10}), nil, nil)
		if err == nil || err.Error() != "xml: 1:31: element nesting exceeds 10 levels" {
			t.Errorf("%s: MaxDepth 10: %v", m.name, err)
		}
		for _, opts := range []ParseOptions{{MaxDepth: 50}, {}} {
			if doc, _, err := buildTree(m.scan(deep, opts), nil, nil); err != nil || CountNodes(doc) != 51 {
				t.Errorf("%s: %+v: %v", m.name, opts, err)
			}
		}
	}
	// Past the default bound the failure is still a ParseError, not a
	// stack overflow somewhere downstream.
	_, err := Parse(strings.Repeat("<a>", DefaultMaxDepth+1))
	if _, ok := err.(*ParseError); !ok || !strings.Contains(err.Error(), "element nesting exceeds") {
		t.Errorf("default bound: %v", err)
	}
}

// tokenTrace drains s and renders every token, then the error or the
// number of bytes consumed.
func tokenTrace(s *Scanner) string {
	var b strings.Builder
	for {
		tok, err := s.Next()
		if err != nil {
			fmt.Fprintf(&b, "error %v", err)
			return b.String()
		}
		if tok.Kind == TokEOF {
			fmt.Fprintf(&b, "eof %d", s.BytesRead())
			return b.String()
		}
		fmt.Fprintf(&b, "%d %q %q %q %v\n", tok.Kind, tok.Name, tok.Data, tok.Attrs, tok.SelfClose)
	}
}

// straddleInputs put long spans of every kind in one document: a name, an
// attribute value, a start tag, a text run, a comment, a CDATA section and a
// PI that each outgrow the reader's initial window, with the delimiters and
// a reference placed right after them. A start tag whose attribute values
// each outgrow the window holds views of the earlier ones while the later
// ones refill it: a refill that moved the window over them would show.
func straddleInputs() []string {
	long := strings.Repeat("0123456789abcdef", 1<<11) // 32 KB
	name := "né" + long
	return []string{
		"<" + name + ` a="` + long + `&amp;" ` + name + `="v">` + long + "&lt;</" + name + ">",
		"<" + name + ` a="a` + long + `" b='b` + long + `' c="c` + long + `" d="&#x64;` + long + `"/>`,
		"<a><!--" + long + "--><![CDATA[" + long + "]]><?p " + long + "?>é</a>",
		"<a " + strings.Repeat(" ", 1<<15) + "b='1'/>",
		"<a><b>" + long + "</b><!-- unterminated " + long,
		"<a>" + long + "]]" + long + "--" + long + "</a >",
	}
}

func TestChunkBoundaryInvariance(t *testing.T) {
	inputs := straddleInputs()
	for _, c := range grammarCases {
		inputs = append(inputs, c.in)
	}
	for _, in := range inputs {
		for _, opts := range grammarOpts[:2] {
			want := tokenTrace(inputModes[0].scan(in, opts))
			for _, m := range inputModes[1:] {
				if got := tokenTrace(m.scan(in, opts)); got != want {
					t.Errorf("%.60q %+v: %s tokens differ from in-memory:\n got %.300s\nwant %.300s", in, opts, m.name, got, want)
				}
			}
		}
	}
}

func TestParseFragmentPinned(t *testing.T) {
	for _, c := range fragmentCases {
		kids, err := ParseFragment(c.in)
		got := ""
		if err != nil {
			got = err.Error()
		} else {
			parts := make([]string, len(kids))
			for i, k := range kids {
				if k.Parent != nil {
					t.Errorf("ParseFragment(%q): item %d keeps a parent", c.in, i)
				}
				parts[i] = k.Kind.String() + ":" + k.String()
			}
			got = fmt.Sprintf("ok %d %s", len(kids), strings.Join(parts, "|"))
		}
		if got != c.want {
			t.Errorf("ParseFragment(%q):\n got %s\nwant %s", c.in, got, c.want)
		}
	}
}

// allocated reports the heap bytes and objects f allocates.
func allocated(f func()) (bytes, objects uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

func TestParseStringCopiesNoInput(t *testing.T) {
	// One element whose text is 4 MB: the tree's text node is a substring,
	// so nothing proportional to the input may be allocated.
	in := "<a>" + strings.Repeat("x", 4<<20) + "</a>"
	var doc *Node
	bytes, _ := allocated(func() { doc = MustParse(in) })
	if bytes > 16<<10 {
		t.Errorf("Parse of %d bytes allocated %d", len(in), bytes)
	}
	if got := len(doc.DocumentElement().StringValue()); got != 4<<20 {
		t.Errorf("text length %d", got)
	}
}

func TestSkipElementDoesNotAllocate(t *testing.T) {
	in := "<r><skip>" + strings.Repeat(`<x a="1" b="&amp;">t&lt;<!-- c --><![CDATA[d]]><?p q?><y/></x>`, 5000) + "</skip></r>"
	s := NewScanner(strings.NewReader(in), ParseOptions{})
	for i := 0; i < 2; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	_, objects := allocated(func() { err = s.SkipElement() })
	if err != nil || s.ElementsSkipped() != 10000 || s.Depth() != 1 {
		t.Fatalf("skip: err %v, skipped %d, depth %d", err, s.ElementsSkipped(), s.Depth())
	}
	// The name table, the attribute scratch and the decode buffer are
	// allocated once; nothing is allocated per element.
	if objects > 20 {
		t.Errorf("SkipElement over 10000 elements made %d allocations", objects)
	}
}

func TestReadErrorSurfaces(t *testing.T) {
	// A read that fails is not the end of a short document.
	boom := fmt.Errorf("boom")
	for _, in := range []string{`<a><b>`, `<a/>`} {
		_, err := ParseReader(io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)))
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("ParseReader(%q + failing read) = %v", in, err)
		}
	}
}
