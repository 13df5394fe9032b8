package shapes_test

// Property tests for the occurrence/kind algebra: every operator is checked
// against a concrete model. admits(o, n) is the ground truth ("a value of n
// items is allowed by the bound o"); Join/Concat/Product must stay sound
// over every representative count pair.

import (
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xquery/shapes"
)

var allOccs = []xdm.Occurrence{xdm.Zero, xdm.One, xdm.Optional, xdm.OneOrMore, xdm.ZeroOrMore}

// counts are the representative item counts; 3 stands in for "many".
var counts = []int{0, 1, 2, 3}

func admits(o xdm.Occurrence, n int) bool {
	if n < o.Lo() {
		return false
	}
	return o.Hi() >= 2 || n <= o.Hi()
}

func TestOccJoinSound(t *testing.T) {
	for _, o := range allOccs {
		for _, p := range allOccs {
			j := o.Join(p)
			for _, n := range counts {
				if (admits(o, n) || admits(p, n)) && !admits(j, n) {
					t.Errorf("Join(%s,%s)=%s rejects %d", o, p, j, n)
				}
			}
			if !o.Sub(j) || !p.Sub(j) {
				t.Errorf("Join(%s,%s)=%s is not an upper bound", o, p, j)
			}
		}
	}
}

func TestOccJoinCommutative(t *testing.T) {
	for _, o := range allOccs {
		for _, p := range allOccs {
			if o.Join(p) != p.Join(o) {
				t.Errorf("Join(%s,%s) != Join(%s,%s)", o, p, p, o)
			}
		}
	}
}

func TestOccConcatSound(t *testing.T) {
	for _, o := range allOccs {
		for _, p := range allOccs {
			c := o.Concat(p)
			for _, a := range counts {
				for _, b := range counts {
					if admits(o, a) && admits(p, b) && !admits(c, a+b) {
						t.Errorf("Concat(%s,%s)=%s rejects %d+%d", o, p, c, a, b)
					}
				}
			}
		}
	}
}

func TestOccProductSound(t *testing.T) {
	for _, o := range allOccs {
		for _, p := range allOccs {
			pr := o.Product(p)
			for _, a := range counts {
				for _, b := range counts {
					if admits(o, a) && admits(p, b) && !admits(pr, a*b) {
						t.Errorf("Product(%s,%s)=%s rejects %d*%d", o, p, pr, a, b)
					}
				}
			}
		}
	}
}

func TestOccSubReflexiveAndStarTop(t *testing.T) {
	for _, o := range allOccs {
		if !o.Sub(o) {
			t.Errorf("%s not ⊑ itself", o)
		}
		if !o.Sub(xdm.ZeroOrMore) {
			t.Errorf("%s not ⊑ *", o)
		}
	}
}

func TestAtomBitsetAlgebra(t *testing.T) {
	atoms := []xdm.Kinds{xdm.KNone, xdm.KInt, xdm.KDec, xdm.KDbl,
		xdm.KBool, xdm.KStr, xdm.KUntyped, xdm.KNum, xdm.KAny}
	for _, a := range atoms {
		if !a.Sub(xdm.KAny) {
			t.Errorf("%s not ⊆ any", a)
		}
		if !xdm.KNone.Sub(a) {
			t.Errorf("none not ⊆ %s", a)
		}
		for _, b := range atoms {
			// Join (bitwise or) is an upper bound of both.
			if j := a | b; !a.Sub(j) || !b.Sub(j) {
				t.Errorf("%s|%s is not an upper bound", a, b)
			}
		}
	}
	if !xdm.KInt.Sub(xdm.KNum) || xdm.KStr.Sub(xdm.KNum) {
		t.Errorf("numeric family membership wrong")
	}
}

func TestShapeJoinConcat(t *testing.T) {
	one := shapes.Shape{Occ: xdm.One, Atomic: xdm.KInt, NodeFree: true, Total: true}
	str := shapes.Shape{Occ: xdm.Optional, Atomic: xdm.KStr, NodeFree: true, Total: false}

	j := shapes.Join(one, str)
	if j.Occ != xdm.Optional || j.Atomic != xdm.KInt|xdm.KStr || !j.NodeFree || j.Total {
		t.Errorf("Join = %s", j)
	}
	c := shapes.Concat(one, one)
	if c.Occ.Lo() != 1 || c.Occ.Hi() != 2 || c.Atomic != xdm.KInt || !c.Total {
		t.Errorf("Concat = %s", c)
	}
	nodes := shapes.Shape{Occ: xdm.ZeroOrMore}
	if shapes.Join(one, nodes).NodeFree {
		t.Errorf("Join with nodes must not be node-free")
	}
}

func TestShapeStrings(t *testing.T) {
	cases := []struct {
		in   shapes.Shape
		want string
	}{
		{shapes.Shape{Occ: xdm.One, Atomic: xdm.KInt, NodeFree: true, Total: true}, "{1 int nf tot}"},
		{shapes.Shape{Occ: xdm.ZeroOrMore}, "{* node}"},
		{shapes.Shape{Occ: xdm.Optional, Atomic: xdm.KAny}, "{? any|node}"},
		{shapes.Shape{Occ: xdm.Zero, NodeFree: true, Total: true}, "{0 () tot}"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
