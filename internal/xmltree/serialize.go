package xmltree

import (
	"strings"
)

// indentUnit is one level of Indent's pretty-printing.
const indentUnit = "  "

// String serializes the subtree rooted at n compactly.
func (n *Node) String() string {
	var b strings.Builder
	serialize(&b, n, false, 0)
	return b.String()
}

// Indent renders the subtree rooted at n pretty-printed, two spaces per
// level, with no XML declaration. Text nodes containing non-whitespace
// suppress indentation inside their parent (mixed content is preserved
// verbatim).
func Indent(n *Node) string {
	var b strings.Builder
	serialize(&b, n, true, 0)
	return b.String()
}

// EscapeText escapes text-node content for inclusion in XML. Carriage
// returns become character references: a conformant XML parser normalizes
// every literal CR (and CRLF) to LF on input, so a raw CR would not survive
// a parse∘serialize round trip.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "<>&\r") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		case '\r':
			b.WriteString("&#13;")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// EscapeAttr escapes attribute-value content (double-quote delimited).
// Whitespace other than a plain space is written as a character reference:
// XML attribute-value normalization replaces literal TAB/LF/CR with spaces,
// so the raw characters would not round-trip through a conformant parser.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, `<>&"`+"\n\t\r") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		case '"':
			b.WriteString("&quot;")
		case '\n':
			b.WriteString("&#10;")
		case '\t':
			b.WriteString("&#9;")
		case '\r':
			b.WriteString("&#13;")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func hasMixedText(kids []*Node) bool {
	for _, c := range kids {
		if c.Kind == TextNode && strings.TrimSpace(c.Data) != "" {
			return true
		}
	}
	return false
}

// serialize reads through shared structure (solidView) rather than the
// Children/Attrs accessors: output has no identity, so serializing a lazily
// cloned tree must not pay for materializing it.
func serialize(b *strings.Builder, n *Node, indent bool, depth int) {
	ind := func(d int) {
		if indent {
			if b.Len() > 0 {
				b.WriteByte('\n')
			}
			for i := 0; i < d; i++ {
				b.WriteString(indentUnit)
			}
		}
	}
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.solidView().kids() {
			serialize(b, c, indent, depth)
		}
	case ElementNode:
		v := n.solidView()
		kids := v.kids()
		ind(depth)
		b.WriteByte('<')
		b.WriteString(n.Name)
		for _, a := range v.attrs() {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(EscapeAttr(a.Data))
			b.WriteByte('"')
		}
		if len(kids) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		if indent && !hasMixedText(kids) {
			for _, c := range kids {
				if c.Kind == TextNode && strings.TrimSpace(c.Data) == "" {
					continue
				}
				serialize(b, c, true, depth+1)
			}
			b.WriteByte('\n')
			for i := 0; i < depth; i++ {
				b.WriteString(indentUnit)
			}
		} else {
			for _, c := range kids {
				serialize(b, c, false, depth+1)
			}
		}
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
	case TextNode:
		b.WriteString(EscapeText(n.Data))
	case CommentNode:
		ind(depth)
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case PINode:
		ind(depth)
		b.WriteString("<?")
		b.WriteString(n.Name)
		if n.Data != "" {
			b.WriteByte(' ')
			b.WriteString(n.Data)
		}
		b.WriteString("?>")
	case AttributeNode:
		// A free-standing attribute serializes as name="value"; XQuery
		// serialization of bare attributes is an error in the spec, but the
		// debugging story in the paper depends on being able to print them.
		b.WriteString(n.Name)
		b.WriteString(`="`)
		b.WriteString(EscapeAttr(n.Data))
		b.WriteByte('"')
	}
}
