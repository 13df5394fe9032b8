package difftest

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// wideDoc is 4 000 <item n k> siblings under one parent; every 200th holds
// a small nested group (two nested <a>, three <b>, a <c>), so reverse and
// descendant axes have something to climb without a 4 000 × 4 000 axis.
func wideDoc() string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&b, `<item n="%d" k="k%d"`, i, i%7)
		if i%200 != 0 {
			b.WriteString("/>")
			continue
		}
		g := i / 200
		fmt.Fprintf(&b, `><group g="%d"><a><b>x%d</b><a><b/><c/></a></a><b/></group></item>`, g, g)
	}
	b.WriteString("</r>")
	return b.String()
}

// TestWideDocumentMatrix runs order-sensitive queries over a document with a
// 4 000-wide parent through every configuration, noidx, proj and stream
// included. The sweeps' generated documents have 20 to 120 items, where no
// way of recovering document order is slow and few are wrong; here a sort
// that loses its place among many siblings shows in the answer (each is
// also checked against one worked out by hand), and work that grows with
// the square of the fan-out blows the per-case budget.
func TestWideDocumentMatrix(t *testing.T) {
	doc := wideDoc()
	x := func(n int) string { // x0x1…x(n-1)
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "x%d", i)
		}
		return b.String()
	}
	const t20 = `let $t := <t>{/r/item[@n < 20]}</t> return `
	cases := []struct{ src, want string }{
		// Forward steps over the wide parent.
		{`count(/r/item)`, "4000"},
		{`count(//item/@n)`, "4000"},
		{`sum(//item/@n)`, "7998000"},
		{`string-join(for $a in (/r/item/@n)[position() = (1, 2, 3999, 4000)] return string($a), " ")`, "0 1 3998 3999"},
		{`string-join(for $i in (/r/item[@k = 'k3'])[position() <= 5] return string($i/@n), ",")`, "3,10,17,24,31"},
		{`data((//item)[last()]/@n)`, "3999"},
		// Positional predicates.
		{`data(/r/item[position() = last()]/@n)`, "3999"},
		{`data((/r/item)[3999]/@n)`, "3998"},
		{`data(/r/item[4000]/@n)`, "3999"},
		{`string-join(for $b in //group/a[1]/b[1] return string($b), "")`, x(20)},
		{`count(//group/*[2])`, "20"},
		// Unordered input to a step: a real sort.
		{`count(reverse(/r/item)/@n)`, "4000"},
		{`string((reverse(/r/item)/@n)[1])`, "0"},
		{`string-join(for $a in (for $i in (3999, 7, 2000, 7) return /r/item[$i])/@n return string($a), ",")`, "6,1999,3998"},
		// union, intersect, except.
		{`count(/r/item[@n mod 2 = 0] | /r/item[@n mod 3 = 0])`, "2667"},
		{`string-join(for $a in (/r/item[@n mod 1000 = 0] | /r/item[@n mod 1500 = 0])/@n return string($a), ",")`, "0,1000,1500,2000,3000"},
		{`count(/r/item[@n mod 2 = 0] intersect /r/item[@n mod 3 = 0])`, "667"},
		{`count(/r/item except /r/item[@k = 'k0'])`, "3428"},
		{`string-join(for $a in (/r/item except /r/item[@n < 3997])/@n return string($a), ",")`, "3997,3998,3999"},
		// Node comparisons.
		{`/r/item[1] << /r/item[last()]`, "true"},
		{`/r/item[2000] >> /r/item[1999]`, "true"},
		{`/r/item[1] >> /r/item[2]`, "false"},
		{`let $p := /r/item[3995] return count(/r/item[. << $p])`, "3994"},
		{`count(/r/item[3000]/@n[. >> /r/item[2999]])`, "1"},
		// Descendant steps, twice over.
		{`count(//a//b)`, "40"},
		{`count(//group//a//b)`, "40"},
		{`count(//item//b)`, "60"},
		{`count(//a/descendant-or-self::a)`, "40"},
		// Reverse axes.
		{`count(//b/ancestor::*)`, "81"},
		{`string-join(for $x in (//c)[1]/ancestor::* return name($x), "/")`, "r/item/group/a/a"},
		{`count(//b/parent::a)`, "40"},
		{`count(//b/..)`, "60"},
		{`count(//c/preceding-sibling::*)`, "20"},
		{`count((//item[group])[last()]/preceding-sibling::item)`, "3800"},
		{`count(/r/item[@n > 3980]/preceding-sibling::item[1])`, "19"},
		{`data((//item[group])[2]/following-sibling::item[1]/@n)`, "201"},
		{`count(//item[@n mod 100 = 3]/following-sibling::item[1])`, "40"},
		{`string-join(for $g in (//group)[3]/preceding::group return string($g/@g), ",")`, "0,1"},
		// A path over a constructed tree: mutable, never numbered.
		{`let $t := <t>{/r/item[@n < 100]}</t> return count($t/item/@n)`, "100"},
		{`let $t := <t>{reverse(/r/item[@n < 50])}</t> return string-join(for $x in ($t/item)[position() < 4] return string($x/@n), ",")`, "49,48,47"},
		{`let $t := <t>{/r/item}</t> return data(($t/item)[last()]/@n)`, "3999"},
		{`let $t := <t>{/r/item}</t> return count($t/item/@n | $t/item)`, "8000"},
		// The document and a constructed tree in one sequence (which tree
		// comes first is the implementation's choice, so only totals).
		{t20 + `count($t/item | /r/item[@n < 20])`, "40"},
		{t20 + `count(($t/item, /r/item[@n < 20])/@n)`, "40"},
		{t20 + `sum($t//@n | //item[@n < 20]/@n)`, "380"},
	}
	// A case is 19 evaluations, each with its own parse of the document: a
	// tenth of a second together, ten times that under the race detector.
	// The budget is for work quadratic in the fan-out with a constant worth
	// noticing (16 million of anything per step, per configuration); the
	// slope itself is xq.TestPathStepLinearInFanOut's to measure.
	const budget = 5 * time.Second
	for i, tc := range cases {
		c := Case{Seed: int64(-1 - i), Src: tc.src, Doc: doc}
		start := time.Now()
		if got := Eval(c, Matrix()[0]); got.Out != tc.want || got.Code != "" {
			t.Errorf("%s\n\tgot %q (code %q), want %q", tc.src, got.Out, got.Code, tc.want)
		}
		if d := Check(c, Matrix()); d != nil {
			d.Case.Doc = "(the wide document)"
			t.Errorf("%v", d)
		}
		if took := time.Since(start); took > budget {
			t.Errorf("%s\n\ttook %v through the matrix, budget %v", tc.src, took, budget)
		} else if testing.Verbose() {
			t.Logf("%8v  %s", took.Round(time.Millisecond), tc.src)
		}
	}
}
