package xdm

import (
	"math"
	"testing"
)

// TestNaNComparisonMatrix pins the NaN contract the differential harness
// relies on: in value comparisons NaN compares false to everything —
// including itself — under every operator except ne, which is always true.
func TestNaNComparisonMatrix(t *testing.T) {
	nan := Double(math.NaN())
	ops := []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	pairs := [][2]Item{
		{nan, nan},
		{nan, Double(1)},
		{Double(1), nan},
		{nan, Integer(0)},
		{nan, dec("2.5")},
		{Untyped("NaN"), Double(1)}, // untyped vs numeric coerces through fn:number
		{Double(1), Untyped("NaN")},
	}
	for _, pair := range pairs {
		for _, op := range ops {
			got, err := CompareValue(pair[0], pair[1], op)
			if err != nil {
				t.Fatalf("CompareValue(%v %s %v): %v", pair[0], op, pair[1], err)
			}
			want := op == OpNe
			if got != want {
				t.Errorf("CompareValue(%v %s %v) = %v, want %v", pair[0], op, pair[1], got, want)
			}
		}
	}
}

// TestNaNGeneralVsDeepEqual: general comparisons stay existential-false on
// NaN while DeepEqual treats NaN as equal to itself — the deliberate split
// the spec mandates (and the one fn:index-of vs fn:distinct-values mirror).
func TestNaNGeneralVsDeepEqual(t *testing.T) {
	nan := Double(math.NaN())
	eq, err := CompareGeneral(Singleton(nan), Singleton(nan), OpEq)
	if err != nil || eq {
		t.Fatalf("(NaN) = (NaN) must be false, got %v err=%v", eq, err)
	}
	ne, err := CompareGeneral(Singleton(nan), Singleton(nan), OpNe)
	if err != nil || !ne {
		t.Fatalf("(NaN) != (NaN) must be true, got %v err=%v", ne, err)
	}
	// Existential semantics still find the comparable member.
	some, err := CompareGeneral(Sequence{nan, Integer(2)}, Singleton(Integer(2)), OpEq)
	if err != nil || !some {
		t.Fatalf("(NaN, 2) = 2 must be true, got %v err=%v", some, err)
	}
	if !DeepEqual(Singleton(nan), Singleton(nan)) {
		t.Fatal("deep-equal must treat NaN as equal to itself")
	}
	if DeepEqual(Singleton(nan), Singleton(Double(1))) {
		t.Fatal("deep-equal NaN vs 1 must be false")
	}
}

// TestFloatDoublePromotion covers the xs:float ↔ xs:double cases: the
// engine models xs:float as xs:double (single-precision is not preserved),
// so casts through either name must land in the same comparison domain,
// promote against xs:decimal and xs:integer numerically, and carry
// NaN/INF spellings identically.
func TestFloatDoublePromotion(t *testing.T) {
	f, err := CastTo(String("1.5"), typ("xs:float"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := CastTo(String("1.5"), typ("xs:double"))
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := CompareValue(f, d, OpEq); err != nil || !eq {
		t.Fatalf("xs:float 1.5 eq xs:double 1.5: %v err=%v", eq, err)
	}
	// Promotion across the numeric tower.
	for _, other := range []Item{Integer(1), dec("1"), Double(1)} {
		lt, err := CompareValue(other, f, OpLt)
		if err != nil || !lt {
			t.Fatalf("%v lt float(1.5): %v err=%v", other, lt, err)
		}
	}
	// NaN and INF spellings parse for both type names.
	for _, typeName := range []string{"xs:float", "xs:double"} {
		nan, err := CastTo(String("NaN"), typ(typeName))
		if err != nil {
			t.Fatalf("cast NaN to %s: %v", typeName, err)
		}
		if !math.IsNaN(NumberOf(nan)) {
			t.Fatalf("cast NaN to %s = %v", typeName, nan)
		}
		inf, err := CastTo(String("INF"), typ(typeName))
		if err != nil || !math.IsInf(NumberOf(inf), 1) {
			t.Fatalf("cast INF to %s = %v err=%v", typeName, inf, err)
		}
	}
	// xs:decimal must reject what xs:float accepts.
	if _, err := CastTo(String("NaN"), typ("xs:decimal")); err == nil {
		t.Fatal("cast NaN to xs:decimal must fail (FORG0001)")
	}
	// Both spellings match the same item test.
	st := SequenceType{Kind: TestAtomic, Type: typ("xs:float"), Occurrence: One}
	if !st.Matches(Singleton(Double(2))) {
		t.Fatal("xs:double value must match the xs:float sequence type")
	}
}
