package funclib

import (
	"math"
	"strings"
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
)

// fakeCtx implements Context for direct function tests.
type fakeCtx struct {
	focus  xdm.Item
	pos    int
	size   int
	traced [][]string
	docs   map[string]*xmltree.Node
}

func (f *fakeCtx) FocusItem() (xdm.Item, error) {
	if f.focus == nil {
		return nil, xdm.Errf("XPDY0002", "no context item")
	}
	return f.focus, nil
}
func (f *fakeCtx) FocusPos() (int, error)  { return f.pos, nil }
func (f *fakeCtx) FocusSize() (int, error) { return f.size, nil }
func (f *fakeCtx) Trace(values []string)   { f.traced = append(f.traced, values) }
func (f *fakeCtx) Doc(uri string) (xdm.Sequence, error) {
	if d, ok := f.docs[uri]; ok {
		return xdm.Singleton(xdm.NewNode(d)), nil
	}
	return nil, xdm.Errf("FODC0002", "no document %q", uri)
}
func (*fakeCtx) ChargeSteps(int) error { return nil }
func (*fakeCtx) ChargeBytes(int) error { return nil }

func call(t *testing.T, name string, args ...xdm.Sequence) xdm.Sequence {
	t.Helper()
	out, err := callE(name, args...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func callE(name string, args ...xdm.Sequence) (xdm.Sequence, error) {
	f, ok := Lookup(name, len(args))
	if !ok {
		return nil, xdm.Errf("XPST0017", "no function %s/%d", name, len(args))
	}
	return f.Call(&fakeCtx{}, args)
}

func one(items ...xdm.Item) xdm.Sequence { return xdm.Sequence(items) }

func TestLookupArity(t *testing.T) {
	if _, ok := Lookup("count", 1); !ok {
		t.Fatal("count/1")
	}
	if _, ok := Lookup("count", 2); ok {
		t.Fatal("count/2 should not resolve")
	}
	if _, ok := Lookup("fn:count", 1); !ok {
		t.Fatal("fn: prefix should resolve")
	}
	if _, ok := Lookup("concat", 5); !ok {
		t.Fatal("variadic concat")
	}
	if _, ok := Lookup("concat", 1); ok {
		t.Fatal("concat needs at least 2 args")
	}
	if _, ok := Lookup("trace", 3); !ok {
		t.Fatal("variadic trace")
	}
	if _, ok := Lookup("nonexistent", 1); ok {
		t.Fatal("unknown function")
	}
	// Every analysis asks this of every user-function call site; saying no
	// must not build a type row for the name first.
	if n := testing.AllocsPerRun(100, func() {
		if f, ok := Lookup("local:f", 1); f != nil || ok {
			t.Fatal("user function name resolved")
		}
	}); n != 0 {
		t.Fatalf("Lookup of a user-function name: %v allocs, want 0", n)
	}
	if len(Names()) < 50 {
		t.Fatalf("library too small: %d", len(Names()))
	}
}

func TestXSConstructorLookup(t *testing.T) {
	f, ok := Lookup("xs:integer", 1)
	if !ok {
		t.Fatal("xs:integer/1")
	}
	out, err := f.Call(&fakeCtx{}, []xdm.Sequence{one(xdm.String("42"))})
	if err != nil || out[0].(xdm.Integer) != 42 {
		t.Fatal(out, err)
	}
	// Empty in → empty out.
	out, err = f.Call(&fakeCtx{}, []xdm.Sequence{xdm.Empty})
	if err != nil || !out.IsEmpty() {
		t.Fatal("xs constructor on empty")
	}
	// Bad cast errors.
	if _, err := f.Call(&fakeCtx{}, []xdm.Sequence{one(xdm.String("x"))}); err == nil {
		t.Fatal("xs:integer('x') should fail")
	}
	if _, ok := Lookup("xs:integer", 2); ok {
		t.Fatal("xs constructors are unary")
	}
}

func TestTraceReturnsLast(t *testing.T) {
	ctx := &fakeCtx{}
	f, _ := Lookup("trace", 3)
	out, err := f.Call(ctx, []xdm.Sequence{
		one(xdm.String("x=")), one(xdm.Integer(1)), one(xdm.Integer(99))})
	if err != nil || out[0].(xdm.Integer) != 99 {
		t.Fatalf("trace should return last arg: %v %v", out, err)
	}
	if len(ctx.traced) != 1 || len(ctx.traced[0]) != 3 {
		t.Fatalf("traced: %v", ctx.traced)
	}
}

func TestErrorValue(t *testing.T) {
	_, err := callE("error", one(xdm.String("CODE1")), one(xdm.String("boom")))
	ev, ok := err.(*ErrorValue)
	if !ok || ev.Code != "CODE1" || ev.Desc != "boom" {
		t.Fatalf("error/2: %v", err)
	}
	if !strings.Contains(ev.Error(), "CODE1") || !strings.Contains(ev.Error(), "boom") {
		t.Fatal("Error() formatting")
	}
	_, err = callE("error")
	if ev, ok := err.(*ErrorValue); !ok || ev.Code != "FOER0000" {
		t.Fatalf("error/0: %v", err)
	}
	if ev := (&ErrorValue{Code: "X"}); ev.Error() != "X" {
		t.Fatal("code-only formatting")
	}
}

func TestDocFunction(t *testing.T) {
	ctx := &fakeCtx{docs: map[string]*xmltree.Node{"m.xml": xmltree.MustParse(`<r/>`)}}
	f, _ := Lookup("doc", 1)
	out, err := f.Call(ctx, []xdm.Sequence{one(xdm.String("m.xml"))})
	if err != nil || len(out) != 1 {
		t.Fatal(out, err)
	}
	if _, err := f.Call(ctx, []xdm.Sequence{one(xdm.String("missing"))}); err == nil {
		t.Fatal("missing doc")
	}
	// Empty URI → empty sequence.
	out, err = f.Call(ctx, []xdm.Sequence{xdm.Empty})
	if err != nil || !out.IsEmpty() {
		t.Fatal("doc of empty")
	}
}

func TestNumericEdgeCases(t *testing.T) {
	// abs/floor/ceiling preserve integer-ness.
	if v := call(t, "abs", one(xdm.Integer(-3)))[0]; v != xdm.Integer(3) {
		t.Fatalf("abs int: %v (%s)", v, v.TypeName())
	}
	if v := call(t, "floor", one(xdm.Decimal(1.7)))[0]; v != xdm.Decimal(1) {
		t.Fatalf("floor decimal: %v", v)
	}
	if v := call(t, "ceiling", one(xdm.Double(1.2)))[0]; v != xdm.Double(2) {
		t.Fatalf("ceiling double: %v", v)
	}
	// round-half-to-even.
	if v := call(t, "round-half-to-even", one(xdm.Decimal(2.5)))[0]; v != xdm.Decimal(2) {
		t.Fatalf("banker's rounding: %v", v)
	}
	// Empty propagates.
	if out := call(t, "abs", xdm.Empty); !out.IsEmpty() {
		t.Fatal("abs of empty")
	}
	// number() of junk is NaN.
	v := call(t, "number", one(xdm.String("junk")))[0]
	if !math.IsNaN(float64(v.(xdm.Double))) {
		t.Fatal("number of junk")
	}
}

func TestSubstringEdgeCases(t *testing.T) {
	cases := []struct {
		args []xdm.Sequence
		want string
	}{
		{[]xdm.Sequence{one(xdm.String("motor car")), one(xdm.Integer(6))}, " car"},
		{[]xdm.Sequence{one(xdm.String("metadata")), one(xdm.Decimal(4)), one(xdm.Decimal(3))}, "ada"},
		// The spec's odd rounding cases.
		{[]xdm.Sequence{one(xdm.String("12345")), one(xdm.Decimal(1.5)), one(xdm.Decimal(2.6))}, "234"},
		{[]xdm.Sequence{one(xdm.String("12345")), one(xdm.Integer(0)), one(xdm.Integer(3))}, "12"},
		{[]xdm.Sequence{one(xdm.String("12345")), one(xdm.Double(math.NaN()))}, ""},
		{[]xdm.Sequence{one(xdm.String("12345")), one(xdm.Integer(-2))}, "12345"},
	}
	for i, c := range cases {
		got := call(t, "substring", c.args...)
		if got[0].StringValue() != c.want {
			t.Errorf("case %d: substring = %q, want %q", i, got[0].StringValue(), c.want)
		}
	}
}

func TestSequenceEdgeCases(t *testing.T) {
	// insert-before clamps positions.
	out := call(t, "insert-before", one(xdm.Integer(1), xdm.Integer(2)), one(xdm.Integer(99)), one(xdm.Integer(9)))
	if out.StringJoin() != "1 2 9" {
		t.Fatalf("insert past end: %v", out.StringJoin())
	}
	out = call(t, "insert-before", one(xdm.Integer(1)), one(xdm.Integer(-5)), one(xdm.Integer(0)))
	if out.StringJoin() != "0 1" {
		t.Fatalf("insert before start: %v", out.StringJoin())
	}
	// remove out of range is identity.
	out = call(t, "remove", one(xdm.Integer(1), xdm.Integer(2)), one(xdm.Integer(9)))
	if out.StringJoin() != "1 2" {
		t.Fatal("remove out of range")
	}
	// subsequence with NaN start is empty.
	out = call(t, "subsequence", one(xdm.Integer(1), xdm.Integer(2)), one(xdm.Double(math.NaN())))
	if !out.IsEmpty() {
		t.Fatal("subsequence NaN")
	}
	// distinct-values treats NaN as equal to itself.
	out = call(t, "distinct-values", one(xdm.Double(math.NaN()), xdm.Double(math.NaN()), xdm.Integer(1)))
	if len(out) != 2 {
		t.Fatalf("distinct NaN: %v", out)
	}
	// index-of with incomparable types skips them.
	out = call(t, "index-of", one(xdm.String("a"), xdm.Integer(1)), one(xdm.Integer(1)))
	if out.StringJoin() != "2" {
		t.Fatalf("index-of mixed: %v", out.StringJoin())
	}
}

func TestCardinalityFunctions(t *testing.T) {
	if _, err := callE("zero-or-one", one(xdm.Integer(1), xdm.Integer(2))); err == nil {
		t.Fatal("zero-or-one")
	}
	if _, err := callE("one-or-more", xdm.Empty); err == nil {
		t.Fatal("one-or-more")
	}
	if _, err := callE("exactly-one", xdm.Empty); err == nil {
		t.Fatal("exactly-one")
	}
}

func TestAggregatesUntypedAndErrors(t *testing.T) {
	// sum over untyped treats values as doubles.
	out := call(t, "sum", one(xdm.Untyped("1"), xdm.Untyped("2.5")))
	if xdm.NumberOf(out[0]) != 3.5 {
		t.Fatalf("sum untyped: %v", out)
	}
	// sum with zero arg returns integer 0; with supplied zero returns it.
	if v := call(t, "sum", xdm.Empty)[0]; v != xdm.Integer(0) {
		t.Fatal("sum() empty default")
	}
	out = call(t, "sum", xdm.Empty, one(xdm.String("none")))
	if out[0] != xdm.String("none") {
		t.Fatal("sum custom zero")
	}
	// avg/min/max of empty → empty.
	for _, fn := range []string{"avg", "min", "max"} {
		if out := call(t, fn, xdm.Empty); !out.IsEmpty() {
			t.Fatalf("%s of empty", fn)
		}
	}
	// sum of strings errors.
	if _, err := callE("sum", one(xdm.String("a"), xdm.String("b"))); err == nil {
		t.Fatal("sum of strings should error")
	}
	// min over untyped numerics.
	if v := call(t, "min", one(xdm.Untyped("3"), xdm.Untyped("2")))[0]; xdm.NumberOf(v) != 2 {
		t.Fatal("min untyped numeric")
	}
	// min over mixed strings+untyped works as strings.
	if v := call(t, "min", one(xdm.Untyped("b"), xdm.String("a")))[0]; v.StringValue() != "a" {
		t.Fatal("min untyped string")
	}
}

func TestContextDependentFunctions(t *testing.T) {
	ctx := &fakeCtx{focus: xdm.String("  hello  "), pos: 3, size: 9}
	f, _ := Lookup("normalize-space", 0)
	out, err := f.Call(ctx, nil)
	if err != nil || out[0].StringValue() != "hello" {
		t.Fatal("normalize-space()")
	}
	f, _ = Lookup("position", 0)
	out, _ = f.Call(ctx, nil)
	if out[0].(xdm.Integer) != 3 {
		t.Fatal("position()")
	}
	f, _ = Lookup("last", 0)
	out, _ = f.Call(ctx, nil)
	if out[0].(xdm.Integer) != 9 {
		t.Fatal("last()")
	}
	f, _ = Lookup("string-length", 0)
	out, _ = f.Call(ctx, nil)
	if out[0].(xdm.Integer) != 9 {
		t.Fatal("string-length()")
	}
	// No focus → XPDY0002.
	f, _ = Lookup("string", 0)
	if _, err := f.Call(&fakeCtx{}, nil); err == nil {
		t.Fatal("string() without focus")
	}
}

func TestNodeFunctions(t *testing.T) {
	doc := xmltree.MustParse(`<ns:root a="1"><kid/></ns:root>`)
	root := doc.DocumentElement()
	if v := call(t, "name", one(xdm.NewNode(root)))[0]; v.StringValue() != "ns:root" {
		t.Fatal("name")
	}
	if v := call(t, "local-name", one(xdm.NewNode(root)))[0]; v.StringValue() != "root" {
		t.Fatal("local-name")
	}
	if out := call(t, "node-name", one(xdm.NewNode(xmltree.NewText("t")))); !out.IsEmpty() {
		t.Fatal("node-name of text is empty")
	}
	kid := root.Children()[0]
	out := call(t, "root", one(xdm.NewNode(kid)))
	if n, _ := xdm.IsNode(out[0]); n != doc {
		t.Fatal("root")
	}
	// name of empty sequence is "".
	if v := call(t, "name", xdm.Empty)[0]; v.StringValue() != "" {
		t.Fatal("name of empty")
	}
	// name of an atomic is a type error.
	if _, err := callE("name", one(xdm.Integer(1))); err == nil {
		t.Fatal("name of atomic")
	}
}

func TestRegexErrors(t *testing.T) {
	for _, fn := range []string{"matches", "tokenize"} {
		if _, err := callE(fn, one(xdm.String("x")), one(xdm.String("["))); err == nil {
			t.Fatalf("%s with bad regex should error", fn)
		}
	}
	if _, err := callE("replace", one(xdm.String("x")), one(xdm.String("[")), one(xdm.String("y"))); err == nil {
		t.Fatal("replace with bad regex")
	}
	out := call(t, "tokenize", one(xdm.String("")), one(xdm.String(",")))
	if !out.IsEmpty() {
		t.Fatal("tokenize of empty string")
	}
	out = call(t, "replace", one(xdm.String("a1b")), one(xdm.String(`([0-9])`)), one(xdm.String(`<$1>`)))
	if out[0].StringValue() != "a<1>b" {
		t.Fatalf("replace group ref: %v", out[0].StringValue())
	}
}

func TestTranslateDeletion(t *testing.T) {
	// Characters mapped past the end of the to-string are deleted.
	out := call(t, "translate", one(xdm.String("abcdabcd")), one(xdm.String("abcd")), one(xdm.String("AB")))
	if out[0].StringValue() != "ABAB" {
		t.Fatalf("translate deletion: %q", out[0].StringValue())
	}
}

func TestConstructorFuncCached(t *testing.T) {
	// xs:/xdt: constructor lookups must return one shared *Func per type
	// name, not a fresh closure per lookup.
	for _, name := range []string{"xs:integer", "xs:string", "xdt:untypedAtomic"} {
		a, ok := Lookup(name, 1)
		if !ok {
			t.Fatalf("Lookup(%s, 1) not found", name)
		}
		b, ok := Lookup(name, 1)
		if !ok {
			t.Fatalf("second Lookup(%s, 1) not found", name)
		}
		if a != b {
			t.Fatalf("Lookup(%s, 1) allocated a new *Func on repeat lookup", name)
		}
	}
	// The cached constructor still works.
	f, _ := Lookup("xs:integer", 1)
	out, err := f.Call(&fakeCtx{}, []xdm.Sequence{one(xdm.String("42"))})
	if err != nil || out[0].(xdm.Integer) != 42 {
		t.Fatalf("cached constructor call: %v %v", out, err)
	}
}

// TestNaNEqualitySplit: the two equality notions in the function library
// must stay consistent with internal/xdm — index-of uses `eq` (NaN matches
// nothing, itself included), while distinct-values uses the spec's deep
// equality (NaN equal to itself, so one NaN survives).
func TestNaNEqualitySplit(t *testing.T) {
	nan := xdm.Double(math.NaN())
	out := call(t, "index-of", one(nan, xdm.Integer(1), nan), one(nan))
	if len(out) != 0 {
		t.Fatalf("index-of NaN must be empty (eq semantics), got %v", out.StringJoin())
	}
	out = call(t, "index-of", one(nan, xdm.Integer(1)), one(xdm.Integer(1)))
	if out.StringJoin() != "2" {
		t.Fatalf("index-of must still find comparable items, got %v", out.StringJoin())
	}
	out = call(t, "distinct-values", one(nan, nan))
	if len(out) != 1 || !math.IsNaN(float64(out[0].(xdm.Double))) {
		t.Fatalf("distinct-values must keep exactly one NaN, got %v", out.StringJoin())
	}
	// deep-equal follows DeepEqual: NaN equals NaN.
	out = call(t, "deep-equal", one(nan), one(nan))
	if out.StringJoin() != "true" {
		t.Fatal("deep-equal(NaN, NaN) must be true")
	}
}

// TestBooleanResultAllocs is exact: the built-ins whose whole result is one
// boolean hand back a shared singleton (xdm.BoolSeq), so a call on
// already-atomic arguments allocates nothing.
func TestBooleanResultAllocs(t *testing.T) {
	ctx := &fakeCtx{}
	str := func(s string) xdm.Sequence { return one(xdm.String(s)) }
	for _, tc := range []struct {
		name string
		args []xdm.Sequence
		want bool
	}{
		{"exists", []xdm.Sequence{str("a")}, true},
		{"empty", []xdm.Sequence{str("a")}, false},
		{"not", []xdm.Sequence{str("")}, true},
		{"boolean", []xdm.Sequence{str("a")}, true},
		{"true", nil, true},
		{"false", nil, false},
		{"starts-with", []xdm.Sequence{str("abc"), str("ab")}, true},
		{"ends-with", []xdm.Sequence{str("abc"), str("ab")}, false},
		{"contains", []xdm.Sequence{str("abc"), str("b")}, true},
	} {
		f, ok := Lookup(tc.name, len(tc.args))
		if !ok {
			t.Fatalf("%s/%d not found", tc.name, len(tc.args))
		}
		n := testing.AllocsPerRun(100, func() {
			out, err := f.Call(ctx, tc.args)
			if err != nil || len(out) != 1 || out[0] != xdm.Boolean(tc.want) {
				t.Fatalf("%s = %v, %v; want %v", tc.name, out, err, tc.want)
			}
		})
		if n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, n)
		}
	}
}
