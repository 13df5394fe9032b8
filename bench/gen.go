package main

// gen.go makes every input from the seed and, while it writes a corpus,
// works out in plain Go what each query over it must return. Nothing here
// calls the engine: the expected answers are the benchmark's independent
// reference. Sizes never depend on the seed (identifiers are fixed-width,
// alternatives have equal length), so two seeds give the same amount of
// work and differ only in literals.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// ---- cat: the read-mostly collection (F4 shape) ----

const (
	catDocs       = 8
	catSections   = 10
	catPerSection = 50 // 500 items per document, 4000 in the collection
	catKeys       = 16
)

type catItem struct {
	doc, section int
	n            int // unique across the collection, six digits
	k            int
}

type catCorpus struct {
	items []catItem // document order: doc, section, position
}

func newCatCorpus(rng *rand.Rand) *catCorpus {
	total := catDocs * catSections * catPerSection
	base := 100000 * (1 + rng.Intn(8))
	perm := rng.Perm(total)
	c := &catCorpus{items: make([]catItem, total)}
	for i := range c.items {
		c.items[i] = catItem{
			doc:     i / (catSections * catPerSection),
			section: i / catPerSection % catSections,
			n:       base + perm[i],
			k:       rng.Intn(catKeys),
		}
	}
	return c
}

func catDocName(d int) string { return fmt.Sprintf("c%d", d) }

// sectionItems returns the items of one section in document order.
func (c *catCorpus) sectionItems(doc, section int) []catItem {
	start := (doc*catSections + section) * catPerSection
	return c.items[start : start+catPerSection]
}

// files renders the collection as file name -> XML text.
func (c *catCorpus) files() map[string]string {
	out := make(map[string]string, catDocs)
	for d := 0; d < catDocs; d++ {
		var b strings.Builder
		b.WriteString("<catalog>")
		for s := 0; s < catSections; s++ {
			fmt.Fprintf(&b, `<section n="%d">`, s)
			for _, it := range c.sectionItems(d, s) {
				fmt.Fprintf(&b, `<item n="%d" k="k%02d"><title>Item %d</title></item>`, it.n, it.k, it.n)
			}
			b.WriteString("</section>")
		}
		b.WriteString("</catalog>")
		out[catDocName(d)+".xml"] = b.String()
	}
	return out
}

// ---- lib: the small collection transforms rewrite (F3 shape) ----

const (
	libDocs    = 4
	libPerDoc  = 50
	libYearLo  = 1990
	libYearsN  = 30
	libTenants = 8
)

type libBook struct {
	doc   int
	year  int
	title string
}

type libCorpus struct {
	books []libBook // document order
}

func newLibCorpus(rng *rand.Rand) *libCorpus {
	l := &libCorpus{}
	for d := 0; d < libDocs; d++ {
		for j := 0; j < libPerDoc; j++ {
			l.books = append(l.books, libBook{
				doc:   d,
				year:  libYearLo + rng.Intn(libYearsN),
				title: fmt.Sprintf("Book %d-%02d", d, j),
			})
		}
	}
	return l
}

func libDocName(d int) string { return fmt.Sprintf("lib%d", d) }

func (l *libCorpus) docBooks(d int) []libBook { return l.books[d*libPerDoc : (d+1)*libPerDoc] }

func (l *libCorpus) files() map[string]string {
	out := make(map[string]string, libDocs)
	for d := 0; d < libDocs; d++ {
		var b strings.Builder
		fmt.Fprintf(&b, `<lib n="%d">`, d)
		for _, bk := range l.docBooks(d) {
			fmt.Fprintf(&b, `<book year="%d"><title>%s</title></book>`, bk.year, bk.title)
		}
		b.WriteString("</lib>")
		out[libDocName(d)+".xml"] = b.String()
	}
	return out
}

// render serializes the store's synthetic collection root over lib the way
// the engine does, with each book passed through edit first: edit returns
// the book's markup, or "" to drop it.
func (l *libCorpus) render(edit func(libBook) string) string {
	var b strings.Builder
	b.WriteString(`<collection name="lib">`)
	for d := 0; d < libDocs; d++ {
		fmt.Fprintf(&b, `<doc name="%s"><lib n="%d">`, libDocName(d), d)
		for _, bk := range l.docBooks(d) {
			b.WriteString(edit(bk))
		}
		b.WriteString("</lib></doc>")
	}
	b.WriteString("</collection>")
	return b.String()
}

func bookXML(elem string, bk libBook, extraAttr, title string) string {
	return fmt.Sprintf(`<%s year="%d"%s><title>%s</title></%s>`, elem, bk.year, extraAttr, title, elem)
}

// ---- requests ----

// A request is one HTTP operation with the answer it must produce.
type request struct {
	class string // point, scan, build, cold, transform
	path  string // /query or /transform
	src   string // the query or update program in body
	body  []byte
	want  string
}

func queryBody(query, collection, tenant string) []byte {
	b, err := json.Marshal(map[string]string{"query": query, "collection": collection, "tenant": tenant})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

func transformBody(update, collection, tenant string) []byte {
	b, err := json.Marshal(map[string]string{"update": update, "collection": collection, "tenant": tenant})
	if err != nil {
		panic(err)
	}
	return b
}

// hotRequests builds the serve_hot request set: 40 point, 16 scan and 8
// build texts, 64 in all, so every plan fits one tenant's 128-plan cache.
func hotRequests(rng *rand.Rand, c *catCorpus) map[string][]request {
	out := map[string][]request{}
	for _, idx := range rng.Perm(len(c.items))[:40] {
		it := c.items[idx]
		q := fmt.Sprintf(`string(//item[@n = '%d']/title)`, it.n)
		out["point"] = append(out["point"], request{"point", "/query", q, queryBody(q, "cat", ""), fmt.Sprintf("Item %d", it.n)})
	}
	for i, idx := range rng.Perm(len(c.items))[:16] {
		it := c.items[idx]
		doc, want := it.doc, "1"
		if i%4 == 3 { // every fourth probe names another document and finds nothing
			doc, want = (it.doc+1+rng.Intn(catDocs-1))%catDocs, "0"
		}
		q := fmt.Sprintf(`count(/collection/doc[@name = '%s']/catalog/section/item[title = 'Item %d'])`, catDocName(doc), it.n)
		out["scan"] = append(out["scan"], request{"scan", "/query", q, queryBody(q, "cat", ""), want})
	}
	for i := 0; i < 8; i++ {
		doc, sec, skip := rng.Intn(catDocs), rng.Intn(catSections), rng.Intn(catKeys)
		q := fmt.Sprintf(`for $s in /collection/doc[@name = '%s']/catalog/section[@n = '%d'] return `+
			`<hit doc="%s" section="{$s/@n}" items="{count($s/item)}">{for $i in $s/item where $i/@k != 'k%02d' `+
			`return <row n="{$i/@n}">{string($i/title)}</row>}</hit>`, catDocName(doc), sec, catDocName(doc), skip)
		var want strings.Builder
		fmt.Fprintf(&want, `<hit doc="%s" section="%d" items="%d">`, catDocName(doc), sec, catPerSection)
		for _, it := range c.sectionItems(doc, sec) {
			if it.k != skip {
				fmt.Fprintf(&want, `<row n="%d">Item %d</row>`, it.n, it.n)
			}
		}
		want.WriteString("</hit>")
		out["build"] = append(out["build"], request{"build", "/query", q, queryBody(q, "cat", ""), want.String()})
	}
	return out
}

// transformRequests builds the 16 update programs serve_churn keeps warm:
// four kinds over four years that occur in lib. They run under their own
// tenant so the cold queries cannot evict them.
func transformRequests(rng *rand.Rand, l *libCorpus) []request {
	seen := map[int]bool{}
	var years []int
	for _, idx := range rng.Perm(len(l.books)) {
		if y := l.books[idx].year; !seen[y] {
			seen[y] = true
			years = append(years, y)
		}
		if len(years) == 4 {
			break
		}
	}
	var out []request
	for _, y := range years {
		y := y
		sel := fmt.Sprintf(`/collection//book[@year = '%d']`, y)
		add := func(update string, hit func(libBook) string) {
			want := l.render(func(bk libBook) string {
				if bk.year == y {
					return hit(bk)
				}
				return bookXML("book", bk, "", bk.title)
			})
			out = append(out, request{"transform", "/transform", update, transformBody(update, "lib", "ops"), want})
		}
		add(`for $b in `+sel+` return insert attribute audited { "1" } into $b`,
			func(bk libBook) string { return bookXML("book", bk, ` audited="1"`, bk.title) })
		add(`delete `+sel, func(libBook) string { return "" })
		add(`for $b in `+sel+` return rename $b as "tome"`,
			func(bk libBook) string { return bookXML("tome", bk, "", bk.title) })
		add(fmt.Sprintf(`for $t in %s/title return replace $t with <title>Revised %d</title>`, sel, y),
			func(bk libBook) string { return bookXML("book", bk, "", fmt.Sprintf("Revised %d", y)) })
	}
	return out
}

// coldRequest instantiates one of four FLWOR templates over lib with seeded
// literals and a trailing comment that makes the text unique, so the daemon
// compiles it from scratch. uniq must never repeat within a run.
func coldRequest(rng *rand.Rand, l *libCorpus, uniq string) request {
	year := libYearLo + rng.Intn(libYearsN)
	tenant := fmt.Sprintf("t%d", rng.Intn(libTenants))
	var q, want string
	switch rng.Intn(4) {
	case 0: // filter, sort, slice, aggregate
		q = fmt.Sprintf(`let $lo := %d let $hits := for $b in /collection/doc/lib/book where number($b/@year) >= $lo `+
			`order by string($b/title) descending return $b return concat(count($hits), "|", `+
			`string-join(for $h in $hits[position() <= 3] return string($h/title), ","), "|", `+
			`sum(for $h in $hits return number($h/@year)))`, year)
		var titles []string
		sum := 0
		for _, bk := range l.books {
			if bk.year >= year {
				titles = append(titles, bk.title)
				sum += bk.year
			}
		}
		sort.Sort(sort.Reverse(sort.StringSlice(titles)))
		n := len(titles)
		if n > 3 {
			titles = titles[:3]
		}
		want = fmt.Sprintf("%d|%s|%d", n, strings.Join(titles, ","), sum)
	case 1: // per-document grouping
		q = fmt.Sprintf(`string-join(for $d in /collection/doc let $n := count($d/lib/book[@year = "%d"]) `+
			`where $n > 0 order by string($d/@name) return concat($d/@name, "=", $n), ";")`, year)
		var parts []string
		for d := 0; d < libDocs; d++ {
			n := 0
			for _, bk := range l.docBooks(d) {
				if bk.year == year {
					n++
				}
			}
			if n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", libDocName(d), n))
			}
		}
		want = strings.Join(parts, ";")
	case 2: // distinct values and their range
		q = fmt.Sprintf(`let $ys := distinct-values(/collection//book[@year >= %d]/@year) return `+
			`if (empty($ys)) then "none" else concat(count($ys), ":", min(for $y in $ys return xs:integer($y)), ":", `+
			`max(for $y in $ys return xs:integer($y)))`, year)
		lo, hi, distinct := 0, 0, map[int]bool{}
		for _, bk := range l.books {
			if bk.year >= year {
				if len(distinct) == 0 || bk.year < lo {
					lo = bk.year
				}
				if bk.year > hi {
					hi = bk.year
				}
				distinct[bk.year] = true
			}
		}
		want = "none"
		if len(distinct) > 0 {
			want = fmt.Sprintf("%d:%d:%d", len(distinct), lo, hi)
		}
	default: // user function, quantifier, constructor
		doc := rng.Intn(libDocs)
		probe := l.books[rng.Intn(len(l.books))].title
		q = fmt.Sprintf(`declare function local:decade($y) { floor(number($y) div 10) * 10 }; `+
			`if (some $b in /collection//book satisfies $b/title = "%s") then `+
			`<r n="{count(/collection//book[@year > %d])}">{for $b in /collection/doc[@name = "%s"]/lib/book[position() <= 3] `+
			`return <t d="{local:decade($b/@year)}">{string($b/title)}</t>}</r> else ()`, probe, year, libDocName(doc))
		n := 0
		for _, bk := range l.books {
			if bk.year > year {
				n++
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, `<r n="%d">`, n)
		for _, bk := range l.docBooks(doc)[:3] {
			fmt.Fprintf(&b, `<t d="%d">%s</t>`, bk.year/10*10, bk.title)
		}
		b.WriteString("</r>")
		want = b.String()
	}
	q += " (: " + uniq + " :)"
	return request{"cold", "/query", q, queryBody(q, "lib", tenant), want}
}

// ---- stream: the F6 corpus with seeded attributes ----

type streamCorpus struct {
	xml     string
	items   int
	queries [3]streamQuery // full-stream, projected, materialize
}

type streamQuery struct {
	tier string // the tier the query must resolve to
	src  string
	want string
}

// newStreamCorpus renders n sections of one item each. A section's trailing
// filler element is <blurb> or, one time in eight, the equally long
// <aside>, which gives the parent-axis query a seeded answer.
func newStreamCorpus(rng *rand.Rand, n int) *streamCorpus {
	var b strings.Builder
	b.Grow(n * 170)
	probe := rng.Intn(catKeys)
	var matches, withBlurb, sum int64
	b.WriteString("<catalog>")
	for i := 0; i < n; i++ {
		num, k, filler := 1000+rng.Intn(9000), rng.Intn(catKeys), "blurb"
		if rng.Intn(8) == 0 {
			filler = "aside"
		} else {
			withBlurb++
		}
		if k == probe {
			matches++
		}
		sum += int64(num)
		fmt.Fprintf(&b, `<section n="%d"><item n="%d" k="k%02d"><title>Item number %d</title></item>`, i, num, k, i)
		fmt.Fprintf(&b, `<%s>Filler prose the query never inspects, item %d edition.</%s></section>`, filler, i, filler)
	}
	b.WriteString("</catalog>")
	return &streamCorpus{
		xml:   b.String(),
		items: n,
		queries: [3]streamQuery{
			{"full-stream", fmt.Sprintf(`count(//item[@k = 'k%02d'])`, probe), fmt.Sprint(matches)},
			{"projected", `sum(//item/@n)`, fmt.Sprint(sum)},
			{"materialize", `count(//item[../blurb])`, fmt.Sprint(withBlurb)},
		},
	}
}
