package interp

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"lopsided/internal/xdm"
)

// The paper: "Following standard software engineering practice, we wrote
// our own utility functions: set manipulation routines, some string- and
// element-handling function[s] ... a bit of trigonometry, and other routine
// things." And: "We only used division 15 times in the document generator,
// once for binary search and the rest for trigonometry."
//
// These tests write those utilities in XQuery on this engine, both to
// exercise deep recursion and numeric code and to document that the
// language could express them — the trouble was everything around them.

// xqSine is sine by Taylor series, in XQuery.
const xqSine = `
declare function local:pow($x, $n) {
  if ($n le 0) then 1.0 else $x * local:pow($x, $n - 1)
};
declare function local:fact($n) {
  if ($n le 1) then 1.0 else $n * local:fact($n - 1)
};
declare function local:sin-rec($x, $k) {
  if ($k gt 10) then 0.0
  else
    let $term := local:pow($x, 2 * $k + 1) div local:fact(2 * $k + 1)
    let $sign := if ($k mod 2 = 0) then 1.0 else -1.0
    return $sign * $term + local:sin-rec($x, $k + 1)
};
declare function local:sin($x) { local:sin-rec($x, 0) };
declare variable $x external;
local:sin($x)`

func TestPaperTrigonometry(t *testing.T) {
	p, err := compileSrc(xqSine)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 0.5, 1, 1.5707963, 3.1415926, -1.2} {
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{"x": xdm.Singleton(xdm.Double(x))}, Options{})
		if err != nil {
			t.Fatalf("sin(%v): %v", x, err)
		}
		got := xdm.NumberOf(out[0])
		if math.Abs(got-math.Sin(x)) > 1e-6 {
			t.Errorf("sin(%v) = %v, want %v", x, got, math.Sin(x))
		}
	}
}

// TestQuickTrigAgreesWithGo: property form over the convergent range.
func TestQuickTrigAgreesWithGo(t *testing.T) {
	p, err := compileSrc(xqSine)
	if err != nil {
		t.Fatal(err)
	}
	f := func(milli int16) bool {
		x := float64(milli%3000) / 1000 // [-3, 3)
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{"x": xdm.Singleton(xdm.Double(x))}, Options{})
		if err != nil {
			return false
		}
		return math.Abs(xdm.NumberOf(out[0])-math.Sin(x)) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// xqBinarySearch is the paper's one divisive use of division ("idiv" here,
// which the 2004 draft provided precisely for index arithmetic).
const xqBinarySearch = `
declare variable $s external;
declare variable $key external;
declare function local:bsearch($s, $key, $lo, $hi) {
  if ($lo gt $hi) then 0
  else
    let $mid := ($lo + $hi) idiv 2
    let $v := $s[$mid]
    return
      if ($v eq $key) then $mid
      else if ($v lt $key) then local:bsearch($s, $key, $mid + 1, $hi)
      else local:bsearch($s, $key, $lo, $mid - 1)
};
local:bsearch($s, $key, 1, count($s))`

func TestPaperBinarySearch(t *testing.T) {
	p, err := compileSrc(xqBinarySearch)
	if err != nil {
		t.Fatal(err)
	}
	search := func(sorted []int, key int) int {
		seq := make(xdm.Sequence, len(sorted))
		for i, v := range sorted {
			seq[i] = xdm.Integer(v)
		}
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{
			"s":   seq,
			"key": xdm.Singleton(xdm.Integer(key)),
		}, Options{})
		if err != nil {
			t.Fatalf("bsearch: %v", err)
		}
		return int(out[0].(xdm.Integer))
	}
	sorted := []int{2, 3, 5, 7, 11, 13, 17, 19, 23}
	for i, v := range sorted {
		if got := search(sorted, v); got != i+1 {
			t.Errorf("search(%d) = %d, want %d", v, got, i+1)
		}
	}
	for _, missing := range []int{1, 4, 24} {
		if got := search(sorted, missing); got != 0 {
			t.Errorf("search(%d) = %d, want 0", missing, got)
		}
	}
	if got := search(nil, 5); got != 0 {
		t.Error("empty sequence")
	}
}

// TestQuickBinarySearchAgreesWithGo: random sorted slices.
func TestQuickBinarySearchAgreesWithGo(t *testing.T) {
	p, err := compileSrc(xqBinarySearch)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []uint8, key uint8) bool {
		// Build a strictly increasing slice from the raw values.
		seen := map[int]bool{}
		var sorted []int
		for _, v := range raw {
			seen[int(v)] = true
		}
		for v := 0; v < 256; v++ {
			if seen[v] {
				sorted = append(sorted, v)
			}
		}
		seq := make(xdm.Sequence, len(sorted))
		wantIdx := 0
		for i, v := range sorted {
			seq[i] = xdm.Integer(v)
			if v == int(key) {
				wantIdx = i + 1
			}
		}
		out, err := p.Eval(context.Background(), nil, map[string]xdm.Sequence{
			"s":   seq,
			"key": xdm.Singleton(xdm.Integer(key)),
		}, Options{})
		if err != nil {
			return false
		}
		return int(out[0].(xdm.Integer)) == wantIdx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperStringSetUtilities reproduces the "set of string" data structure
// the paper settled on, with sequences.
func TestPaperStringSetUtilities(t *testing.T) {
	src := `
	declare function local:set-add($set, $v) {
	  if ($v = $set) then $set else ($set, $v)
	};
	declare function local:set-contains($set, $v) { $v = $set };
	declare function local:set-union($a, $b) { distinct-values(($a, $b)) };
	let $s0 := ()
	let $s1 := local:set-add($s0, "a")
	let $s2 := local:set-add($s1, "b")
	let $s3 := local:set-add($s2, "a")   (: duplicate: no change :)
	return (count($s3),
	        local:set-contains($s3, "b"),
	        local:set-contains($s3, "z"),
	        count(local:set-union($s3, ("b", "c"))))`
	if got := run(t, src); got != "2 true false 3" {
		t.Fatalf("string set utilities: %q", got)
	}
}
