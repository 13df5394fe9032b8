package xdm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lopsided/internal/xmltree"
)

func TestItemStringValues(t *testing.T) {
	tests := []struct {
		it   Item
		want string
		typ  string
	}{
		{String("hi"), "hi", "xs:string"},
		{Untyped("u"), "u", "xs:untypedAtomic"},
		{Integer(-42), "-42", "xs:integer"},
		{Decimal(2.5), "2.5", "xs:decimal"},
		{Decimal(3), "3", "xs:decimal"},
		{Double(1.5), "1.5", "xs:double"},
		{Double(math.NaN()), "NaN", "xs:double"},
		{Double(math.Inf(1)), "INF", "xs:double"},
		{Double(math.Inf(-1)), "-INF", "xs:double"},
		{Boolean(true), "true", "xs:boolean"},
		{Boolean(false), "false", "xs:boolean"},
	}
	for _, tt := range tests {
		if got := tt.it.StringValue(); got != tt.want {
			t.Errorf("%v StringValue = %q, want %q", tt.it, got, tt.want)
		}
		if got := tt.it.TypeName(); got != tt.typ {
			t.Errorf("%v TypeName = %q, want %q", tt.it, got, tt.typ)
		}
	}
}

func TestNodeItem(t *testing.T) {
	n := xmltree.MustParse(`<a>text</a>`).DocumentElement()
	it := NewNode(n)
	if it.StringValue() != "text" || it.TypeName() != "element()" {
		t.Fatal("NodeItem")
	}
	got, ok := IsNode(it)
	if !ok || got != n {
		t.Fatal("IsNode")
	}
	if _, ok := IsNode(String("x")); ok {
		t.Fatal("IsNode on atomic")
	}
}

func TestNumberOf(t *testing.T) {
	tests := []struct {
		it   Item
		want float64
	}{
		{Integer(3), 3},
		{Decimal(2.5), 2.5},
		{Double(1.5), 1.5},
		{Boolean(true), 1},
		{Boolean(false), 0},
		{String("7.5"), 7.5},
		{String(" 8 "), 8},
		{Untyped("-2"), -2},
		{String("INF"), math.Inf(1)},
		{String("-INF"), math.Inf(-1)},
	}
	for _, tt := range tests {
		if got := NumberOf(tt.it); got != tt.want {
			t.Errorf("NumberOf(%v) = %v, want %v", tt.it, got, tt.want)
		}
	}
	if !math.IsNaN(NumberOf(String("nope"))) {
		t.Error("NumberOf of junk should be NaN")
	}
}

func TestSequenceFlattening(t *testing.T) {
	// (1,(2,3,4),(),(5,((6,7)))) = (1,2,3,4,5,6,7): in Go the nested
	// structure is unrepresentable, so Concat is the comma operator.
	s := Concat(
		Of(Integer(1)),
		Concat(Of(Integer(2), Integer(3), Integer(4))),
		Empty,
		Concat(Of(Integer(5)), Concat(Concat(Of(Integer(6), Integer(7))))),
	)
	if len(s) != 7 {
		t.Fatalf("len = %d, want 7", len(s))
	}
	for i, it := range s {
		if int64(it.(Integer)) != int64(i+1) {
			t.Fatalf("s[%d] = %v", i, it)
		}
	}
}

func TestSequenceOneAndAtMostOne(t *testing.T) {
	if _, err := Empty.One(); err == nil {
		t.Fatal("One on empty should error")
	}
	if _, err := Of(Integer(1), Integer(2)).One(); err == nil {
		t.Fatal("One on pair should error")
	}
	it, err := Singleton(Integer(5)).One()
	if err != nil || it.(Integer) != 5 {
		t.Fatal("One on singleton")
	}
	it, err = Empty.AtMostOne()
	if err != nil || it != nil {
		t.Fatal("AtMostOne empty")
	}
	if _, err := Of(Integer(1), Integer(2)).AtMostOne(); err == nil {
		t.Fatal("AtMostOne pair should error")
	}
}

func TestStringJoin(t *testing.T) {
	s := Of(Integer(1), String("a"), Boolean(true))
	if got := s.StringJoin(); got != "1 a true" {
		t.Fatalf("StringJoin = %q", got)
	}
	if Empty.StringJoin() != "" {
		t.Fatal("empty join")
	}
}

func TestAtomize(t *testing.T) {
	el := xmltree.MustParse(`<a>hello</a>`).DocumentElement()
	attr := xmltree.NewAttr("k", "v")
	s := Atomize(Of(NewNode(el), NewNode(attr), Integer(3)))
	if s[0].(Untyped) != "hello" || s[1].(Untyped) != "v" || s[2].(Integer) != 3 {
		t.Fatalf("Atomize = %v", s)
	}
}

func TestEffectiveBool(t *testing.T) {
	el := NewNode(xmltree.NewElement("e"))
	tests := []struct {
		s    Sequence
		want bool
	}{
		{Empty, false},
		{Singleton(el), true},
		{Of(el, el), true},
		{Singleton(Boolean(true)), true},
		{Singleton(Boolean(false)), false},
		{Singleton(String("")), false},
		{Singleton(String("x")), true},
		{Singleton(Untyped("x")), true},
		{Singleton(Integer(0)), false},
		{Singleton(Integer(7)), true},
		{Singleton(Decimal(0)), false},
		{Singleton(Double(math.NaN())), false},
		{Singleton(Double(2)), true},
	}
	for i, tt := range tests {
		got, err := EffectiveBool(tt.s)
		if err != nil || got != tt.want {
			t.Errorf("case %d: EffectiveBool = %v, %v; want %v", i, got, err, tt.want)
		}
	}
	if _, err := EffectiveBool(Of(Integer(1), Integer(2))); err == nil {
		t.Fatal("multi-item atomic sequence should be FORG0006")
	}
}

func TestNodesAndSortDoc(t *testing.T) {
	doc := xmltree.MustParse(`<a><b/><c/></a>`)
	a := doc.DocumentElement()
	b, c := a.Children()[0], a.Children()[1]
	s := Of(NewNode(c), NewNode(a), NewNode(b), NewNode(c))
	sorted, err := SortDoc(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != 3 {
		t.Fatalf("dedup failed: %d", len(sorted))
	}
	n0, _ := IsNode(sorted[0])
	if n0 != a {
		t.Fatal("doc order wrong")
	}
	if _, err := SortDoc(Of(Integer(1))); err == nil {
		t.Fatal("SortDoc of atomic should error")
	}
	if _, err := Of(Integer(1)).Nodes(); err == nil {
		t.Fatal("Nodes of atomic should error")
	}
}

func TestCompareValueNumeric(t *testing.T) {
	tests := []struct {
		a, b Item
		op   CompareOp
		want bool
	}{
		{Integer(1), Integer(1), OpEq, true},
		{Integer(1), Integer(2), OpLt, true},
		{Integer(2), Integer(1), OpGt, true},
		{Integer(1), Integer(2), OpNe, true},
		{Integer(2), Integer(2), OpLe, true},
		{Integer(2), Integer(2), OpGe, true},
		{Integer(1), Double(1.0), OpEq, true},
		{Decimal(1.5), Double(1.5), OpEq, true},
		{Untyped("3"), Integer(3), OpEq, true},
		{Integer(3), Untyped("4"), OpLt, true},
		{Double(math.NaN()), Double(1), OpEq, false},
		{Double(math.NaN()), Double(math.NaN()), OpNe, true},
	}
	for i, tt := range tests {
		got, err := CompareValue(tt.a, tt.b, tt.op)
		if err != nil || got != tt.want {
			t.Errorf("case %d: %v %v %v = %v, %v; want %v", i, tt.a, tt.op, tt.b, got, err, tt.want)
		}
	}
}

func TestCompareValueStringsAndBools(t *testing.T) {
	ok, err := CompareValue(String("abc"), String("abd"), OpLt)
	if err != nil || !ok {
		t.Fatal("string lt")
	}
	ok, err = CompareValue(Untyped("x"), String("x"), OpEq)
	if err != nil || !ok {
		t.Fatal("untyped vs string")
	}
	ok, err = CompareValue(Untyped("a"), Untyped("b"), OpNe)
	if err != nil || !ok {
		t.Fatal("untyped vs untyped")
	}
	ok, err = CompareValue(Boolean(false), Boolean(true), OpLt)
	if err != nil || !ok {
		t.Fatal("bool lt")
	}
	ok, err = CompareValue(Untyped("true"), Boolean(true), OpEq)
	if err != nil || !ok {
		t.Fatal("untyped vs boolean")
	}
	if _, err := CompareValue(String("x"), Integer(1), OpEq); err == nil {
		t.Fatal("string vs integer should be a type error")
	}
}

// TestPaperGeneralComparison reproduces quirk #4: 1 = (1,2,3) and
// (1,2,3) = 3 are true; 1 eq (1,2,3) is an error (singleton required).
func TestPaperGeneralComparison(t *testing.T) {
	one := Singleton(Integer(1))
	seq := Of(Integer(1), Integer(2), Integer(3))
	three := Singleton(Integer(3))

	if ok, err := CompareGeneral(one, seq, OpEq); err != nil || !ok {
		t.Fatal("1 = (1,2,3) should be true")
	}
	if ok, err := CompareGeneral(seq, three, OpEq); err != nil || !ok {
		t.Fatal("(1,2,3) = 3 should be true")
	}
	if ok, err := CompareGeneral(one, three, OpEq); err != nil || ok {
		t.Fatal("1 = 3 should be false")
	}
	// The eq family requires singletons; Sequence.One is the gate.
	if _, err := seq.One(); err == nil {
		t.Fatal("eq on (1,2,3) should fail the singleton gate")
	}
}

func TestCompareGeneralWithNodes(t *testing.T) {
	el := xmltree.MustParse(`<a>5</a>`).DocumentElement()
	ok, err := CompareGeneral(Singleton(NewNode(el)), Singleton(Integer(5)), OpEq)
	if err != nil || !ok {
		t.Fatal("node atomization in general comparison")
	}
	// Empty operand: always false.
	ok, err = CompareGeneral(Empty, Singleton(Integer(5)), OpEq)
	if err != nil || ok {
		t.Fatal("() = 5 should be false")
	}
}

func TestArithIntegers(t *testing.T) {
	tests := []struct {
		a, b int64
		op   ArithOp
		want Item
	}{
		{2, 3, OpAdd, Integer(5)},
		{2, 3, OpSub, Integer(-1)},
		{2, 3, OpMul, Integer(6)},
		{6, 3, OpDiv, Decimal(2)},
		{7, 2, OpDiv, Decimal(3.5)},
		{7, 2, OpIDiv, Integer(3)},
		{7, 2, OpMod, Integer(1)},
	}
	for i, tt := range tests {
		got, err := Arith(Integer(tt.a), Integer(tt.b), tt.op)
		if err != nil || got != tt.want {
			t.Errorf("case %d: %d %v %d = %v (%v), want %v", i, tt.a, tt.op, tt.b, got, err, tt.want)
		}
	}
}

func TestArithErrorsAndPromotion(t *testing.T) {
	if _, err := Arith(Integer(1), Integer(0), OpDiv); err == nil {
		t.Fatal("integer division by zero")
	}
	if _, err := Arith(Integer(1), Integer(0), OpIDiv); err == nil {
		t.Fatal("idiv by zero")
	}
	if _, err := Arith(Integer(1), Integer(0), OpMod); err == nil {
		t.Fatal("mod by zero")
	}
	if _, err := Arith(String("x"), Integer(1), OpAdd); err == nil {
		t.Fatal("string arithmetic should be a type error")
	}
	// Double division by zero gives INF, not an error.
	got, err := Arith(Double(1), Double(0), OpDiv)
	if err != nil || !math.IsInf(float64(got.(Double)), 1) {
		t.Fatal("double div by zero should be INF")
	}
	// Untyped converts to double.
	got, err = Arith(Untyped("4"), Integer(2), OpDiv)
	if err != nil || NumberOf(got) != 2 {
		t.Fatal("untyped arithmetic")
	}
	if _, ok := got.(Double); !ok {
		t.Fatalf("untyped arithmetic should be xs:double, got %s", got.TypeName())
	}
	// Integer + double promotes to double.
	got, _ = Arith(Integer(1), Double(0.5), OpAdd)
	if _, ok := got.(Double); !ok {
		t.Fatal("promotion to double")
	}
	// Decimal result type for decimal operands.
	got, _ = Arith(Decimal(1.5), Integer(1), OpAdd)
	if _, ok := got.(Decimal); !ok {
		t.Fatal("decimal result type")
	}
	// Float idiv.
	got, err = Arith(Double(7.9), Integer(2), OpIDiv)
	if err != nil || got.(Integer) != 3 {
		t.Fatal("float idiv")
	}
	if _, err := Arith(Double(math.NaN()), Integer(2), OpIDiv); err == nil {
		t.Fatal("NaN idiv should error")
	}
}

func TestNegate(t *testing.T) {
	if v, _ := Negate(Integer(3)); v.(Integer) != -3 {
		t.Fatal("negate int")
	}
	if v, _ := Negate(Decimal(1.5)); v.(Decimal) != -1.5 {
		t.Fatal("negate decimal")
	}
	if v, _ := Negate(Untyped("2")); v.(Double) != -2 {
		t.Fatal("negate untyped")
	}
	if _, err := Negate(String("x")); err == nil {
		t.Fatal("negate string should error")
	}
}

func TestDeepEqual(t *testing.T) {
	a := xmltree.MustParse(`<a x="1" y="2"><b>t</b><!--c--></a>`).DocumentElement()
	b := xmltree.MustParse(`<a y="2" x="1"><b>t</b></a>`).DocumentElement()
	if !DeepEqual(Singleton(NewNode(a)), Singleton(NewNode(b))) {
		t.Fatal("deep-equal should ignore attr order and comments")
	}
	c := xmltree.MustParse(`<a x="1" y="3"><b>t</b></a>`).DocumentElement()
	if DeepEqual(Singleton(NewNode(a)), Singleton(NewNode(c))) {
		t.Fatal("different attr value")
	}
	if !DeepEqual(Of(Integer(1), String("x")), Of(Integer(1), String("x"))) {
		t.Fatal("atomic deep-equal")
	}
	if DeepEqual(Of(Integer(1)), Of(Integer(1), Integer(2))) {
		t.Fatal("length mismatch")
	}
	if !DeepEqual(Singleton(Double(math.NaN())), Singleton(Double(math.NaN()))) {
		t.Fatal("NaN deep-equal NaN should be true per spec")
	}
	if DeepEqual(Singleton(NewNode(a)), Singleton(Integer(1))) {
		t.Fatal("node vs atomic")
	}
}

func TestSequenceTypeMatching(t *testing.T) {
	el := NewNode(xmltree.NewElement("book"))
	attr := NewNode(xmltree.NewAttr("a", "1"))
	txt := NewNode(xmltree.NewText("t"))
	tests := []struct {
		t    SequenceType
		s    Sequence
		want bool
	}{
		{SequenceType{Kind: TestAnyItem, Occurrence: ZeroOrMore}, Empty, true},
		{SequenceType{Kind: TestAnyItem}, Empty, false},
		{SequenceType{Kind: TestAnyItem, Occurrence: Optional}, Singleton(Integer(1)), true},
		{SequenceType{Kind: TestAnyItem, Occurrence: Optional}, Of(Integer(1), Integer(2)), false},
		{SequenceType{Kind: TestAnyItem, Occurrence: OneOrMore}, Empty, false},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:string")}, Singleton(String("x")), true},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:string")}, Singleton(Untyped("x")), false},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:integer")}, Singleton(Integer(1)), true},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:decimal")}, Singleton(Integer(1)), true},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:nonNegativeInteger")}, Singleton(Integer(-1)), false},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:positiveInteger")}, Singleton(Integer(1)), true},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:anyAtomicType")}, Singleton(el), false},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:numeric")}, Singleton(Double(1)), true},
		{SequenceType{Kind: TestAnyNode}, Singleton(el), true},
		{SequenceType{Kind: TestAnyNode}, Singleton(Integer(1)), false},
		{SequenceType{Kind: TestElement}, Singleton(el), true},
		{SequenceType{Kind: TestElement, NodeName: "book"}, Singleton(el), true},
		{SequenceType{Kind: TestElement, NodeName: "car"}, Singleton(el), false},
		{SequenceType{Kind: TestElement, NodeName: "*"}, Singleton(el), true},
		{SequenceType{Kind: TestAttribute}, Singleton(attr), true},
		{SequenceType{Kind: TestAttribute}, Singleton(el), false},
		{SequenceType{Kind: TestText}, Singleton(txt), true},
		{SequenceType{Kind: TestEmptySequence}, Empty, true},
		{SequenceType{Kind: TestEmptySequence}, Singleton(Integer(1)), false},
	}
	for i, tt := range tests {
		if got := tt.t.Matches(tt.s); got != tt.want {
			t.Errorf("case %d: %s.Matches(%v) = %v, want %v", i, tt.t, tt.s, got, tt.want)
		}
	}
}

func TestSequenceTypeString(t *testing.T) {
	tests := []struct {
		t    SequenceType
		want string
	}{
		{SequenceType{Kind: TestAnyItem, Occurrence: ZeroOrMore}, "item()*"},
		{SequenceType{Kind: TestAtomic, Type: typ("xs:string"), Occurrence: Optional}, "xs:string?"},
		{SequenceType{Kind: TestElement, NodeName: "a", Occurrence: OneOrMore}, "element(a)+"},
		{SequenceType{Kind: TestEmptySequence}, "empty-sequence()"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCastTo(t *testing.T) {
	tests := []struct {
		it   Item
		typ  string
		want Item
	}{
		{Integer(3), "xs:string", String("3")},
		{String("true"), "xs:boolean", Boolean(true)},
		{String("0"), "xs:boolean", Boolean(false)},
		{Double(0), "xs:boolean", Boolean(false)},
		{Decimal(2), "xs:boolean", Boolean(true)},
		{Boolean(true), "xs:integer", Integer(1)},
		{String("42"), "xs:integer", Integer(42)},
		{Double(3.9), "xs:integer", Integer(3)},
		{Decimal(2.5), "xs:integer", Integer(2)},
		{String("2.5"), "xs:decimal", Decimal(2.5)},
		{String("1e2"), "xs:double", Double(100)},
		{Untyped("7"), "xs:integer", Integer(7)},
		{Integer(2), "xs:double", Double(2)},
		{String("x"), "xs:untypedAtomic", Untyped("x")},
	}
	for i, tt := range tests {
		got, err := CastTo(tt.it, typ(tt.typ))
		if err != nil || got != tt.want {
			t.Errorf("case %d: CastTo(%v, %s) = %v (%v), want %v", i, tt.it, tt.typ, got, err, tt.want)
		}
	}
	bad := []struct {
		it  Item
		typ string
	}{
		{String("maybe"), "xs:boolean"},
		{String("x"), "xs:integer"},
		{String("x"), "xs:decimal"},
		{Double(math.NaN()), "xs:integer"},
		{Double(math.NaN()), "xs:decimal"},
		{String("x"), "xs:double"},
		{Integer(1), "xs:noSuchType"},
	}
	for i, tt := range bad {
		if _, err := CastTo(tt.it, typ(tt.typ)); err == nil {
			t.Errorf("bad case %d: CastTo(%v, %s) should error", i, tt.it, tt.typ)
		}
	}
	// NaN string casts to double NaN.
	got, err := CastTo(String("NaN"), typ("xs:double"))
	if err != nil || !math.IsNaN(float64(got.(Double))) {
		t.Error("NaN cast")
	}
}

func TestErrorType(t *testing.T) {
	err := Errf("FORG0006", "bad %s", "thing")
	if !strings.Contains(err.Error(), "FORG0006") || !strings.Contains(err.Error(), "bad thing") {
		t.Fatalf("error formatting: %v", err)
	}
}

// TestQuickConcatFlattens: for any partition of a sequence into chunks,
// Concat rebuilds the same sequence — associativity/flattening property.
func TestQuickConcatFlattens(t *testing.T) {
	f := func(vals []int64, cut uint8) bool {
		items := make(Sequence, len(vals))
		for i, v := range vals {
			items[i] = Integer(v)
		}
		if len(items) == 0 {
			return Concat(Empty, Empty).IsEmpty()
		}
		k := int(cut) % len(items)
		got := Concat(items[:k], Empty, items[k:])
		if len(got) != len(items) {
			return false
		}
		for i := range got {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGeneralEqMembership: for any int slice and candidate, the general
// comparison x = seq is exactly membership — the idiom the paper notes
// ("once in a while, we used = to test if a sequence contained a value").
func TestQuickGeneralEqMembership(t *testing.T) {
	f := func(vals []int16, x int16) bool {
		seq := make(Sequence, len(vals))
		contains := false
		for i, v := range vals {
			seq[i] = Integer(v)
			if v == x {
				contains = true
			}
		}
		got, err := CompareGeneral(Singleton(Integer(x)), seq, OpEq)
		return err == nil && got == contains
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCompareValueAntisymmetry: integer value comparison is a total
// order: exactly one of lt/eq/gt holds.
func TestQuickCompareValueAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		lt, _ := CompareValue(Integer(a), Integer(b), OpLt)
		eq, _ := CompareValue(Integer(a), Integer(b), OpEq)
		gt, _ := CompareValue(Integer(a), Integer(b), OpGt)
		count := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
