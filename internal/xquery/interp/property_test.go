package interp

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
)

func intSeq(vals []int16) xdm.Sequence {
	out := make(xdm.Sequence, len(vals))
	for i, v := range vals {
		out[i] = xdm.Integer(v)
	}
	return out
}

// TestQuickSequenceFunctionsAgreeWithGo: for random integer sequences, the
// engine's sequence functions agree with direct Go computations.
func TestQuickSequenceFunctionsAgreeWithGo(t *testing.T) {
	src := `declare variable $s external;
	        (count($s), sum($s), count(reverse($s)), count(distinct-values($s)))`
	p, err := compileSrc(src)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals []int16) bool {
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{"s": intSeq(vals)}, Options{})
		if err != nil || len(out) != 4 {
			return false
		}
		sum := int64(0)
		distinct := map[int16]bool{}
		for _, v := range vals {
			sum += int64(v)
			distinct[v] = true
		}
		wantDistinct := len(distinct)
		if len(vals) == 0 {
			wantDistinct = 0
		}
		return int(out[0].(xdm.Integer)) == len(vals) &&
			xdm.NumberOf(out[1]) == float64(sum) &&
			int(out[2].(xdm.Integer)) == len(vals) &&
			int(out[3].(xdm.Integer)) == wantDistinct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPositionalPredicate: $s[i] equals direct indexing for all i in
// range and () outside.
func TestQuickPositionalPredicate(t *testing.T) {
	p, err := compileSrc(`declare variable $s external; declare variable $i external; $s[$i]`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals []int16, idx uint8) bool {
		i := int(idx)%20 + 1
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{
			"s": intSeq(vals),
			"i": xdm.Singleton(xdm.Integer(i)),
		}, Options{})
		if err != nil {
			return false
		}
		if i > len(vals) {
			return len(out) == 0
		}
		return len(out) == 1 && out[0] == xdm.Integer(vals[i-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFLWORSortAgreesWithGo: order by over random integers sorts.
func TestQuickFLWORSortAgreesWithGo(t *testing.T) {
	p, err := compileSrc(`declare variable $s external; for $x in $s order by $x return $x`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals []int16) bool {
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{"s": intSeq(vals)}, Options{})
		if err != nil || len(out) != len(vals) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if int64(out[i-1].(xdm.Integer)) > int64(out[i].(xdm.Integer)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomTreeSrc builds a small random XML document string with nested a/b
// elements, for path-equivalence properties.
func randomTreeSrc(r *rand.Rand) string {
	var b strings.Builder
	var build func(depth int)
	names := []string{"a", "b", "c"}
	build = func(depth int) {
		name := names[r.Intn(len(names))]
		b.WriteString("<" + name + ">")
		if depth > 0 {
			for i := r.Intn(3); i > 0; i-- {
				build(depth - 1)
			}
		}
		b.WriteString("</" + name + ">")
	}
	b.WriteString("<root>")
	for i := 1 + r.Intn(3); i > 0; i-- {
		build(3)
	}
	b.WriteString("</root>")
	return b.String()
}

// TestQuickDoubleSlashEquivalence: x//b is exactly
// x/descendant-or-self::node()/b on arbitrary trees.
func TestQuickDoubleSlashEquivalence(t *testing.T) {
	abbrev, err := compileSrc(`//b`)
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := compileSrc(`/descendant-or-self::node()/child::b`)
	if err != nil {
		t.Fatal(err)
	}
	countB, err := compileSrc(`count(//b)`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmltree.MustParse(randomTreeSrc(r))
		ctx := xdm.NewNode(doc)
		a, err := abbrev.Eval(context.Background(), ctx, nil, Options{})
		if err != nil {
			return false
		}
		b, err := expanded.Eval(context.Background(), ctx, nil, Options{})
		if err != nil {
			return false
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			na, _ := xdm.IsNode(a[i])
			nb, _ := xdm.IsNode(b[i])
			if na != nb {
				return false
			}
		}
		// Cross-check with a direct walk.
		walked := 0
		xmltree.Walk(doc, func(n *xmltree.Node) bool {
			if n.Kind == xmltree.ElementNode && n.Name == "b" {
				walked++
			}
			return true
		})
		c, err := countB.Eval(context.Background(), ctx, nil, Options{})
		return err == nil && int(c[0].(xdm.Integer)) == walked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnionIdempotent: X | X == X in doc order for random node sets.
func TestQuickUnionIdempotent(t *testing.T) {
	p, err := compileSrc(`count(//b | //b) = count(//b) and count(//a | //b) >= count(//b)`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmltree.MustParse(randomTreeSrc(r))
		out, err := p.Eval(context.Background(), xdm.NewNode(doc), nil, Options{})
		if err != nil {
			return false
		}
		ok, err := xdm.EffectiveBool(out)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStringFunctionsAgreeWithGo: substring/contains/concat agree with
// Go's strings package on ASCII inputs.
func TestQuickStringFunctionsAgreeWithGo(t *testing.T) {
	p, err := compileSrc(`declare variable $a external; declare variable $b external;
	  (concat($a, $b), contains($a, $b), string-length($a))`)
	if err != nil {
		t.Fatal(err)
	}
	clean := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if r >= ' ' && r < 127 {
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	f := func(rawA, rawB string) bool {
		a, bs := clean(rawA), clean(rawB)
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{
			"a": xdm.Singleton(xdm.String(a)),
			"b": xdm.Singleton(xdm.String(bs)),
		}, Options{})
		if err != nil || len(out) != 3 {
			return false
		}
		return out[0].StringValue() == a+bs &&
			bool(out[1].(xdm.Boolean)) == strings.Contains(a, bs) &&
			int(out[2].(xdm.Integer)) == len([]rune(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTryCatchTotal: for random (possibly failing) arithmetic, a
// try/catch always yields a value, never an error.
func TestQuickTryCatchTotal(t *testing.T) {
	p, err := compileSrc(`declare variable $a external; declare variable $b external;
	  try { $a idiv $b } catch ($c, $m) { concat("E:", $c) }`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b int16) bool {
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{
			"a": xdm.Singleton(xdm.Integer(a)),
			"b": xdm.Singleton(xdm.Integer(b)),
		}, Options{})
		if err != nil || len(out) != 1 {
			return false
		}
		if b == 0 {
			return out[0].StringValue() == "E:FOAR0001"
		}
		return int64(out[0].(xdm.Integer)) == int64(a)/int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParserNeverPanics feeds mutated program text to the full
// pipeline; it must return errors, never panic.
func TestQuickParserNeverPanics(t *testing.T) {
	seeds := []string{
		`for $x in (1,2,3) return <a b="{$x}">{$x + 1}</a>`,
		`declare function local:f($a) { $a }; local:f(1) + count(//x)`,
		`try { 1 div 0 } catch ($c, $m) { $m }`,
		`<el> {attribute a {1}} </el>`,
		`some $x in (1 to 10) satisfies $x mod 2 = 0`,
	}
	f := func(seedIdx uint8, pos uint16, repl byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic: %v", r)
				ok = false
			}
		}()
		src := []byte(seeds[int(seedIdx)%len(seeds)])
		if len(src) > 0 {
			src[int(pos)%len(src)] = repl
		}
		p, err := compileSrc(string(src))
		if err != nil {
			return true // rejected cleanly
		}
		_, _ = p.Eval(context.Background(), nil, nil, Options{Limits: Limits{MaxDepth: 64}}) // evaluation errors are fine too
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickXMLParserNeverPanics: arbitrary bytes into the XML parser.
func TestQuickXMLParserNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", data, r)
				ok = false
			}
		}()
		_, _ = xmltree.Parse(string(data))
		_, _ = xmltree.ParseFragment(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundTripThroughConstructor: any random tree rebuilt through an
// XQuery identity-copy function is deep-equal to the original.
func TestQuickIdentityCopy(t *testing.T) {
	src := `
	declare variable $doc external;
	declare function local:copy($n) {
	  if ($n instance of element()) then
	    element {name($n)} {
	      (for $a in $n/@* return attribute {name($a)} {string($a)}),
	      (for $c in $n/node() return local:copy($c))
	    }
	  else $n
	};
	local:copy($doc/*)`
	p, err := compileSrc(src)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := xmltree.MustParse(randomTreeSrc(r))
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{"doc": xdm.Singleton(xdm.NewNode(doc))}, Options{})
		if err != nil || len(out) != 1 {
			return false
		}
		copied, _ := xdm.IsNode(out[0])
		return xmltree.Equal(doc.DocumentElement(), copied)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
