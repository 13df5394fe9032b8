package xslt

import (
	"slices"
	"strings"
	"testing"

	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/interp"
)

func transform(t *testing.T, sheetSrc, docSrc string) string {
	t.Helper()
	sheet, err := CompileString(sheetSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	doc := xmltree.MustParse(docSrc)
	out, err := sheet.Transform(doc)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return out.String()
}

func TestIdentityViaBuiltins(t *testing.T) {
	// With no matching templates, built-in rules recurse and copy text.
	got := transform(t, `<xsl:stylesheet version="1.0"/>`, `<a>hi <b>there</b></a>`)
	if got != "hi there" {
		t.Fatalf("built-ins: %q", got)
	}
}

func TestTemplateMatchAndValueOf(t *testing.T) {
	sheet := `<xsl:stylesheet version="1.0">
	  <xsl:template match="/">
	    <out><xsl:apply-templates select="/lib/book"/></out>
	  </xsl:template>
	  <xsl:template match="book">
	    <title y="{string(@year)}"><xsl:value-of select="string(title)"/></title>
	  </xsl:template>
	</xsl:stylesheet>`
	got := transform(t, sheet, `<lib><book year="1983"><title>LL</title></book><book year="2004"><title>XQ</title></book></lib>`)
	want := `<out><title y="1983">LL</title><title y="2004">XQ</title></out>`
	if got != want {
		t.Fatalf("got %s", got)
	}
	// The expression of {…} ends where the lexer says: not at a brace in a
	// string literal or inside a nested {}, and {{ }} still escape.
	for _, c := range [][2]string{
		{`{concat('x', '}')}`, `x}`},
		{`{{{string(/lib/book[1]/@year)}}}`, `{1983}`},
		{`a{ (: } :) 'b' }c`, `abc`},
	} {
		avt, want := c[0], c[1]
		sheet := `<xsl:stylesheet version="1.0"><xsl:template match="/"><r a="` + avt + `"/></xsl:template></xsl:stylesheet>`
		if got := transform(t, sheet, `<lib><book year="1983"/></lib>`); got != `<r a="`+want+`"/>` {
			t.Errorf("avt %s: got %s, want a=%q", avt, got, want)
		}
	}
}

func TestForEachIfChoose(t *testing.T) {
	sheet := `<xsl:stylesheet version="1.0">
	  <xsl:template match="/">
	    <r><xsl:for-each select="//n">
	      <xsl:choose>
	        <xsl:when test="number(string(.)) > 5"><big><xsl:value-of select="string(.)"/></big></xsl:when>
	        <xsl:otherwise><small/></xsl:otherwise>
	      </xsl:choose>
	      <xsl:if test="string(.) = '9'"><nine/></xsl:if>
	    </xsl:for-each></r>
	  </xsl:template>
	</xsl:stylesheet>`
	got := transform(t, sheet, `<d><n>3</n><n>9</n></d>`)
	want := `<r><small/><big>9</big><nine/></r>`
	if got != want {
		t.Fatalf("got %s", got)
	}
}

func TestCopyOfAndElementAttribute(t *testing.T) {
	sheet := `<xsl:stylesheet version="1.0">
	  <xsl:template match="/">
	    <xsl:element name="made-{string(/d/@kind)}">
	      <xsl:attribute name="n"><xsl:value-of select="count(//x)"/></xsl:attribute>
	      <xsl:copy-of select="//x"/>
	      <xsl:text>done</xsl:text>
	    </xsl:element>
	  </xsl:template>
	</xsl:stylesheet>`
	got := transform(t, sheet, `<d kind="box"><x i="1"/><x i="2"/></d>`)
	want := `<made-box n="2"><x i="1"/><x i="2"/>done</made-box>`
	if got != want {
		t.Fatalf("got %s", got)
	}
}

func TestPriorityAndSpecificity(t *testing.T) {
	sheet := `<xsl:stylesheet version="1.0">
	  <xsl:template match="*"><any/></xsl:template>
	  <xsl:template match="b"><bee/></xsl:template>
	  <xsl:template match="/"><r><xsl:apply-templates/></r></xsl:template>
	</xsl:stylesheet>`
	got := transform(t, sheet, `<a><b/><c/></a>`)
	// match="a" falls to "*"; inside it nothing recurses (the * template
	// has empty body), so only the root's children are processed.
	if got != `<r><any/></r>` {
		t.Fatalf("got %s", got)
	}
	// Explicit priority can invert specificity.
	sheet2 := `<xsl:stylesheet version="1.0">
	  <xsl:template match="b"><bee/></xsl:template>
	  <xsl:template match="*" priority="10"><any/></xsl:template>
	  <xsl:template match="/"><r><xsl:apply-templates select="//b"/></r></xsl:template>
	</xsl:stylesheet>`
	got = transform(t, sheet2, `<a><b/></a>`)
	if got != `<r><any/></r>` {
		t.Fatalf("priority override: %s", got)
	}
}

func TestPatternMatching(t *testing.T) {
	doc := xmltree.MustParse(`<a><b><c/></b><c/></a>`)
	a := doc.DocumentElement()
	bc := a.Children()[0].Children()[0] // c under b
	topc := a.Children()[1]             // c under a
	// The nearest b above deepc is under x, not under a.
	deepc := xmltree.MustParse(`<a><b><x><b><c/></b></x></b></a>`).
		DocumentElement().Children()[0].Children()[0].Children()[0].Children()[0]
	pb := xmltree.MustParse(`<p:b/>`).DocumentElement()
	cases := []struct {
		pat   string
		node  *xmltree.Node
		match bool
	}{
		{"c", bc, true},
		{"b/c", bc, true},
		{"b/c", topc, false},
		{"a/c", topc, true},
		{"a//c", bc, true},
		{"/a", a, true},
		{"/b", a, false},
		{"*", a, true},
		{"node()", a, true},
		{"b|c", topc, true},
		{"/", doc, true},
		{"/", a, false},
		{"a/b//c", deepc, true},
		{"a/b//c", topc, false},
		{"p:*", pb, true},
		{"*:b", pb, true},
		{"q:*", pb, false},
		{"*:c", pb, false},
	}
	for _, c := range cases {
		p, err := parsePattern(c.pat)
		if err != nil {
			t.Fatalf("pattern %q: %v", c.pat, err)
		}
		if got := p.matches(c.node); got != c.match {
			t.Errorf("pattern %q on %s: %v, want %v", c.pat, c.node.Name, got, c.match)
		}
	}
}

// TestPatternMatchesSelect: a pattern matches a node exactly when the
// XQuery engine selects that node with the same path, evaluated from the
// document node ('//' prepended to a relative path).
func TestPatternMatchesSelect(t *testing.T) {
	docs := []*xmltree.Node{
		xmltree.MustParse(`<a><b><x><b><c/></b></x></b><c/><b><c>t</c></b></a>`),
		xmltree.MustParse(`<p:r q:k="1"><p:b x="1"/><b p:x="2"><q:b/><a/></b><!--note--><?pi d?></p:r>`),
		xmltree.MustParse(`<r x="1" y="2"><a x="3">text<!--c--><c x="4"><b/></c></a>tail</r>`),
	}
	pats := []string{"a", "c", "*", "p:*", "*:b", "*:x", "@x", "@*", "@p:*", "text()", "node()",
		"comment()", "processing-instruction()", "/", "/a", "/*/b", "a/b", "a//c", "a/b//c", "//c",
		"a|b", "a/@x", "c//b|@y", "a//*/@x"}
	x := &executor{exprs: map[string]*interp.Program{}}
	for _, src := range pats {
		p, err := parsePattern(src)
		if err != nil {
			t.Fatalf("pattern %q: %v", src, err)
		}
		alts := strings.Split(src, "|")
		for i, alt := range alts {
			if !strings.HasPrefix(alt, "/") {
				alts[i] = "//" + alt
			}
		}
		sel := strings.Join(alts, "|")
		for _, doc := range docs {
			want, err := x.xpathNodes(sel, doc)
			if err != nil {
				t.Fatalf("select %q: %v", sel, err)
			}
			for _, n := range xmltree.DescendantOrSelfAxis(doc) {
				for _, m := range append([]*xmltree.Node{n}, n.Attrs()...) {
					if got := p.matches(m); got != slices.Contains(want, m) {
						t.Errorf("pattern %q on %s %q in %s: %v, select %q disagrees", src, m.Kind, m.Name, doc, got, sel)
					}
				}
			}
		}
	}
}

// TestDefaultPriority: XSLT 1.0 §5.5's defaults, read off the parsed
// pattern; a union takes its highest alternative.
func TestDefaultPriority(t *testing.T) {
	for src, want := range map[string]float64{
		"a": 0, "@x": 0, "child::a": 0, "*": -0.25, "@*": -0.25, "p:*": -0.25, "*:x": -0.25,
		"text()": -0.5, "node()": -0.5, "/": -0.5, "/a": 0.5, "//a": 0.5, "a/b": 0.5, "a//b": 0.5,
		"text()|*": -0.25, "*|a/b": 0.5,
	} {
		p, err := parsePattern(src)
		if err != nil {
			t.Fatalf("pattern %q: %v", src, err)
		}
		if p.priority != want {
			t.Errorf("pattern %q: priority %v, want %v", src, p.priority, want)
		}
	}
}

func TestPatternErrors(t *testing.T) {
	for _, bad := range []string{"", "a[1]", "a//", "a|", "a b",
		"..", "$x", "1", ".", "ancestor::a", "a/@b/c", "count(a)",
		"declare variable $v := 1; a", "declare option o 'v'; a", "(a)", "b|(a)", "(a|b)", "a//..",
		"a/descendant-or-self::node()"} {
		if _, err := parsePattern(bad); err == nil {
			t.Errorf("pattern %q should be rejected", bad)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		`<not-a-stylesheet/>`,
		`<xsl:stylesheet version="1.0"><div/></xsl:stylesheet>`,
		`<xsl:stylesheet version="1.0"><xsl:template/></xsl:stylesheet>`,
		`<xsl:stylesheet version="1.0"><xsl:template match="a" priority="x"/></xsl:stylesheet>`,
	}
	for _, src := range cases {
		if _, err := CompileString(src); err == nil {
			t.Errorf("%q should not compile", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []string{
		`<xsl:stylesheet version="1.0"><xsl:template match="/"><xsl:value-of/></xsl:template></xsl:stylesheet>`,
		`<xsl:stylesheet version="1.0"><xsl:template match="/"><xsl:unknown/></xsl:template></xsl:stylesheet>`,
		`<xsl:stylesheet version="1.0"><xsl:template match="/"><a b="{oops("/></xsl:template></xsl:stylesheet>`,
	}
	for _, src := range cases {
		sheet, err := CompileString(src)
		if err != nil {
			continue // compile-time rejection also acceptable
		}
		if _, err := sheet.Transform(xmltree.MustParse(`<x/>`)); err == nil {
			t.Errorf("%q should fail at runtime", src)
		}
	}
	// Cyclic apply-templates is caught, not a stack overflow.
	sheet, err := CompileString(`<xsl:stylesheet version="1.0">
	  <xsl:template match="a"><xsl:apply-templates select="."/></xsl:template>
	</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sheet.Transform(xmltree.MustParse(`<a/>`)); err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("cycle: %v", err)
	}
}

func TestSplitStreams(t *testing.T) {
	bundle := xmltree.MustParse(`<SPLIT-OUTPUT>
	  <document><html><body>content</body></html></document>
	  <problems><problem>p one</problem><problem>p two</problem></problems>
	</SPLIT-OUTPUT>`)
	doc, problems, err := SplitStreams(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.String(); !strings.Contains(got, "<html><body>content</body></html>") {
		t.Fatalf("document stream: %s", got)
	}
	if len(problems) != 2 || problems[0] != "p one" || problems[1] != "p two" {
		t.Fatalf("problems: %v", problems)
	}
	// Element (not document) input also works.
	_, problems, err = SplitStreams(bundle.DocumentElement())
	if err != nil || len(problems) != 2 {
		t.Fatal("element input")
	}
}
