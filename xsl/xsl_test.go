package xsl_test

import (
	"fmt"
	"strings"
	"testing"

	"lopsided/xsl"
)

func TestFacade(t *testing.T) {
	sheet, err := xsl.Compile(`<xsl:stylesheet version="1.0">
	  <xsl:template match="/">
	    <out><xsl:value-of select="count(//item)"/></xsl:value-of-count></out>
	  </xsl:template>
	</xsl:stylesheet>`)
	if err == nil {
		_ = sheet
		t.Fatal("malformed stylesheet should not compile")
	}
	sheet, err = xsl.Compile(`<xsl:stylesheet version="1.0">
	  <xsl:template match="/">
	    <out n="{count(//item)}"/>
	  </xsl:template>
	</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xsl.ParseXML(`<list><item/><item/><item/></list>`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sheet.Transform(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := xsl.Serialize(out); got != `<out n="3"/>` {
		t.Fatalf("got %s", got)
	}
	// Stylesheets are reusable.
	doc2, _ := xsl.ParseXML(`<list><item/></list>`)
	out2, err := sheet.Transform(doc2)
	if err != nil || xsl.Serialize(out2) != `<out n="1"/>` {
		t.Fatal("reuse")
	}
}

func ExampleCompile() {
	sheet, _ := xsl.Compile(`<xsl:stylesheet version="1.0">
	  <xsl:template match="book">
	    <li><xsl:value-of select="string(title)"/></li>
	  </xsl:template>
	  <xsl:template match="/">
	    <ul><xsl:apply-templates select="//book"/></ul>
	  </xsl:template>
	</xsl:stylesheet>`)
	doc, _ := xsl.ParseXML(`<bib><book><title>Little Languages</title></book></bib>`)
	out, _ := sheet.Transform(doc)
	fmt.Println(xsl.Serialize(out))
	// Output: <ul><li>Little Languages</li></ul>
}

// TestComputedNamesAreXMLNames: xsl:element and xsl:attribute names are
// checked by the rule the XML scanner reads names by, so a transform never
// emits markup that does not parse back; the error names the instruction.
func TestComputedNamesAreXMLNames(t *testing.T) {
	cases := []struct{ body, want, err string }{
		{`<xsl:element name="{concat('a', '1')}"/>`, `<a1/>`, ""},
		{`<xsl:element name="p:e"/>`, `<p:e/>`, ""},
		{`<r><xsl:attribute name="x-1.y">v</xsl:attribute></r>`, `<r x-1.y="v"/>`, ""},
		{`<xsl:element name="{concat('1', 'a')}"/>`, "", `xsl:element name "1a"`},
		{`<xsl:element name="a/b"/>`, "", `xsl:element name "a/b"`},
		{`<xsl:element name="{''}"/>`, "", `xsl:element name ""`},
		{`<r><xsl:attribute name="-x">v</xsl:attribute></r>`, "", `xsl:attribute name "-x"`},
		{`<r><xsl:attribute name="a b">v</xsl:attribute></r>`, "", `xsl:attribute name "a b"`},
	}
	doc, err := xsl.ParseXML(`<d/>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		sheet, err := xsl.Compile(`<xsl:stylesheet version="1.0"><xsl:template match="/">` + tc.body + `</xsl:template></xsl:stylesheet>`)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		out, err := sheet.Transform(doc)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.body, err)
		case tc.err == "" && xsl.Serialize(out) != tc.want:
			t.Errorf("%s: got %s, want %s", tc.body, xsl.Serialize(out), tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err+" is not an XML name")):
			t.Errorf("%s: got error %v, want one naming %s", tc.body, err, tc.err)
		}
	}
}
