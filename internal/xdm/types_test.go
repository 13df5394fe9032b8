package xdm

import (
	"math"
	"testing"

	"lopsided/internal/xmltree"
)

// typ finds a type's row by name, as the parser does.
func typ(name string) *AtomicType {
	t, _ := TypeNamed(name)
	return t
}

// itemPool is one value (at least) of every kind, nodes included, with the
// awkward members of each: strings that parse as other types, both signs and
// the extremes of integers, the non-finite doubles.
func itemPool() []Item {
	pool := []Item{
		String(""), String("abc"), String(" 42 "), String("-7"), String("1.5"), String("true"), String("NaN"), String("["),
		Untyped("42"), Untyped("x"), Untyped("-3.5"),
		Integer(0), Integer(-1), Integer(1), Integer(1114112), Integer(math.MaxInt64), Integer(math.MinInt64),
		dec("1.5"), dec("-2"), dec("0"),
		Double(0), Double(2.5), Double(math.NaN()), Double(math.Inf(1)), Double(math.Inf(-1)), Double(1e300),
		Boolean(true), Boolean(false),
	}
	el := xmltree.NewElement("e")
	el.AppendChild(xmltree.NewText("7"))
	return append(pool, NewNode(el), NewNode(xmltree.NewAttr("a", "x")))
}

// TestAtomicTypeRows holds every row of the type table to the code beside
// it, over the item pool: an item matches exactly when its kind is in
// Matches (and, for a restricted type, its value is in range); a cast from a
// SafeFrom kind succeeds; a successful cast yields a Yields kind that the
// target type then matches; an abstract row casts nothing.
func TestAtomicTypeRows(t *testing.T) {
	if len(atomicTypes) != 15 {
		t.Fatalf("type table holds %d names, want 15: decide the new row's facts and pin them here", len(atomicTypes))
	}
	pool := itemPool()
	for name, row := range atomicTypes {
		if row.Name != name {
			t.Errorf("%s: row is named %s", name, row.Name)
		}
		if row.Restricted != (name == "xs:nonNegativeInteger" || name == "xs:positiveInteger") {
			t.Errorf("%s: Restricted = %v", name, row.Restricted)
		}
		st := SequenceType{Kind: TestAtomic, Type: row}
		for _, it := range pool {
			k := KindOf(it)
			if _, isNode := IsNode(it); isNode != (k == KNone) {
				t.Fatalf("KindOf(%s) = %s", it.TypeName(), k)
			}
			want := k&row.Matches != 0
			if want && row.Restricted {
				want = it.(Integer) >= row.min
			}
			if got := st.MatchesItem(it); got != want {
				t.Errorf("%s: MatchesItem(%s %q) = %v, row says %v", name, it.TypeName(), it.StringValue(), got, want)
			}
			if k == KNone {
				continue // casts see atomized operands only
			}
			out, err := CastTo(it, row)
			switch {
			case row.cast == nil:
				if e, ok := err.(*Error); !ok || e.Code != "XPST0051" {
					t.Errorf("%s: cast of %s to an abstract type: %v, want XPST0051", name, it.TypeName(), err)
				}
			case err != nil:
				if k&row.SafeFrom != 0 {
					t.Errorf("%s: cast from safe kind %s (%q) failed: %v", name, k, it.StringValue(), err)
				}
			default:
				if !KindOf(out).Sub(row.Yields) || KindOf(out) == KNone {
					t.Errorf("%s: cast of %s yields %s, row says %s", name, it.TypeName(), KindOf(out), row.Yields)
				}
				if !st.MatchesItem(out) {
					t.Errorf("%s: cast result %s %q does not match its own type", name, out.TypeName(), out.StringValue())
				}
			}
		}
	}
	// Range checks of the restricted integers, and names outside the table.
	for _, c := range []struct {
		it   Item
		typ  string
		code string
	}{
		{String("5"), "xs:positiveInteger", ""},
		{Integer(0), "xs:positiveInteger", "FORG0001"},
		{Integer(0), "xs:nonNegativeInteger", ""},
		{String("-1"), "xs:nonNegativeInteger", "FORG0001"},
		{String("x"), "xs:positiveInteger", "FORG0001"},
		{Integer(1), "xs:numeric", "XPST0051"},
		{Integer(1), "xs:date", "XPST0051"},
		{Integer(1), "integer", "XPST0051"},
	} {
		_, err := CastTo(c.it, typ(c.typ))
		code := ""
		if e, ok := err.(*Error); ok {
			code = e.Code
		}
		if code != c.code {
			t.Errorf("CastTo(%q, %s): code %q, want %q", c.it.StringValue(), c.typ, code, c.code)
		}
	}
	if row, ctor := TypeNamed("xs:date"); !ctor || row.Matches != KNone || row.Name != "xs:date" {
		t.Errorf("TypeNamed(xs:date) = %+v, %v", row, ctor)
	}
	if _, ctor := TypeNamed("integer"); ctor {
		t.Error("an unprefixed name is not a constructor function")
	}
}
