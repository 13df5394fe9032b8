package interp

import (
	"context"
	"strings"
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
)

// The paper cites the W3C XML Query Use Cases [UC] as the scale XQuery was
// designed for ("a few tens of lines"). This file runs engine versions of
// the classic XMP use cases over the bibliography sample, as a
// conformance-style suite: every query is the canonical shape from the use
// cases document, adjusted only where the subset diverges (untyped mode,
// no schema).

const bibXML = `
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="1992">
    <title>Advanced Programming in the Unix environment</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher>
    <price>39.95</price>
  </book>
  <book year="1999">
    <title>The Economics of Technology and Content for Digital TV</title>
    <editor><last>Gerbarg</last><first>Darcy</first><affiliation>CITI</affiliation></editor>
    <publisher>Kluwer Academic Publishers</publisher>
    <price>129.95</price>
  </book>
</bib>`

func bibDoc(t *testing.T) xdm.Item {
	t.Helper()
	doc, err := xmltree.ParseWith(bibXML, xmltree.ParseOptions{TrimWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	return xdm.NewNode(doc)
}

func runBib(t *testing.T, src string) string {
	t.Helper()
	p, err := compileSrc(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := p.Eval(context.Background(), bibDoc(t), nil, Options{})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return SerializeSeq(out)
}

// XMP Q1: books published by Addison-Wesley after 1991.
func TestUseCaseXMPQ1(t *testing.T) {
	src := `<bib>{
	  for $b in /bib/book
	  where $b/publisher = "Addison-Wesley" and $b/@year > 1991
	  return <book year="{string($b/@year)}">{$b/title}</book>
	}</bib>`
	got := runBib(t, src)
	want := `<bib><book year="1994"><title>TCP/IP Illustrated</title></book><book year="1992"><title>Advanced Programming in the Unix environment</title></book></bib>`
	if got != want {
		t.Fatalf("Q1:\ngot  %s\nwant %s", got, want)
	}
}

// XMP Q2: flattened title/author pairs.
func TestUseCaseXMPQ2(t *testing.T) {
	src := `<results>{
	  for $b in /bib/book, $t in $b/title, $a in $b/author
	  return <result>{$t}{$a}</result>
	}</results>`
	got := runBib(t, src)
	if count := strings.Count(got, "<result>"); count != 5 {
		t.Fatalf("Q2: %d results, want 5:\n%s", count, got)
	}
	if !strings.Contains(got, "<result><title>Data on the Web</title><author><last>Suciu</last><first>Dan</first></author></result>") {
		t.Fatalf("Q2 missing Suciu pair:\n%s", got)
	}
}

// XMP Q3: titles with all authors, per book.
func TestUseCaseXMPQ3(t *testing.T) {
	src := `<results>{
	  for $b in /bib/book
	  return <result>{$b/title}{$b/author}</result>
	}</results>`
	got := runBib(t, src)
	if strings.Count(got, "<result>") != 4 {
		t.Fatalf("Q3: %s", got)
	}
	if !strings.Contains(got, "<result><title>Data on the Web</title><author><last>Abiteboul</last><first>Serge</first></author><author><last>Buneman</last><first>Peter</first></author><author><last>Suciu</last><first>Dan</first></author></result>") {
		t.Fatalf("Q3 grouping:\n%s", got)
	}
}

// XMP Q4: books per author (distinct authors, then their books).
func TestUseCaseXMPQ4(t *testing.T) {
	src := `<results>{
	  let $doc := /bib
	  for $last in distinct-values($doc/book/author/last)
	  return
	    <result>
	      <author>{$last}</author>
	      {for $b in $doc/book where $b/author/last = $last return $b/title}
	    </result>
	}</results>`
	got := runBib(t, src)
	if strings.Count(got, "<result>") != 4 {
		t.Fatalf("Q4 author count:\n%s", got)
	}
	if !strings.Contains(got, "<author>Stevens</author>") ||
		!strings.Contains(got, "<author>Suciu</author>") {
		t.Fatalf("Q4 authors:\n%s", got)
	}
	// Stevens wrote two books.
	stevens := got[strings.Index(got, "<author>Stevens</author>"):]
	stevens = stevens[:strings.Index(stevens, "</result>")]
	if strings.Count(stevens, "<title>") != 2 {
		t.Fatalf("Q4 Stevens titles:\n%s", stevens)
	}
}

// XMP Q5 (simplified to one source): books cheaper than 50.
func TestUseCaseXMPQ5(t *testing.T) {
	src := `<books-under-50>{
	  for $b in /bib/book
	  where number($b/price) < 50
	  return <book>{string($b/title)}</book>
	}</books-under-50>`
	got := runBib(t, src)
	want := `<books-under-50><book>Data on the Web</book></books-under-50>`
	if got != want {
		t.Fatalf("Q5: %s", got)
	}
}

// XMP Q6: books with more than one author get an <et-al/>.
func TestUseCaseXMPQ6(t *testing.T) {
	src := `<bib>{
	  for $b in /bib/book
	  where count($b/author) > 0
	  return
	    <book>
	      {$b/title}
	      {$b/author[position() <= 2]}
	      {if (count($b/author) > 2) then <et-al/> else ()}
	    </book>
	}</bib>`
	got := runBib(t, src)
	if strings.Count(got, "<et-al/>") != 1 {
		t.Fatalf("Q6 et-al:\n%s", got)
	}
	if strings.Count(got, "<book>") != 3 {
		t.Fatalf("Q6 books:\n%s", got)
	}
}

// XMP Q7: titles and years, ordered by year descending.
func TestUseCaseXMPQ7(t *testing.T) {
	src := `<bib>{
	  for $b in /bib/book
	  where $b/publisher = "Addison-Wesley"
	  order by string($b/@year) descending
	  return <book year="{string($b/@year)}">{string($b/title)}</book>
	}</bib>`
	got := runBib(t, src)
	want := `<bib><book year="1994">TCP/IP Illustrated</book><book year="1992">Advanced Programming in the Unix environment</book></bib>`
	if got != want {
		t.Fatalf("Q7: %s", got)
	}
}

// XMP Q11: books with either author or editor, tagged by which.
func TestUseCaseXMPQ11(t *testing.T) {
	src := `<bib>{
	  for $b in /bib/book
	  return
	    <entry>{
	      if ($b/author) then attribute kind {"authored"}
	      else attribute kind {"edited"}
	    }{string($b/title)}</entry>
	}</bib>`
	got := runBib(t, src)
	if strings.Count(got, `kind="authored"`) != 3 || strings.Count(got, `kind="edited"`) != 1 {
		t.Fatalf("Q11:\n%s", got)
	}
}

// XMP Q12: pairs of books with the same authors (self-join).
func TestUseCaseXMPQ12(t *testing.T) {
	src := `<pairs>{
	  for $b1 in /bib/book, $b2 in /bib/book
	  where $b1/author/last = $b2/author/last and string($b1/title) < string($b2/title)
	  return <pair>{$b1/title}{$b2/title}</pair>
	}</pairs>`
	got := runBib(t, src)
	want := `<pairs><pair><title>Advanced Programming in the Unix environment</title><title>TCP/IP Illustrated</title></pair></pairs>`
	if got != want {
		t.Fatalf("Q12: %s", got)
	}
}
