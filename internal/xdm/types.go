package xdm

import (
	"math"
	"strconv"
	"strings"

	"lopsided/internal/xmltree"
)

// Occurrence bounds how many items a value holds. Four of the five points are
// the sequence-type occurrence indicators; Zero, exactly the empty sequence,
// is the one only a static bound can state (the result of fn:error, a path
// proven empty). Bounds are ordered by interval inclusion with ZeroOrMore on
// top; Zero and One are incomparable bottoms.
type Occurrence uint8

// Occurrence bounds: exactly one, ? (zero or one), * (zero or more), + (one
// or more), and none at all.
const (
	One Occurrence = iota
	Optional
	ZeroOrMore
	OneOrMore
	Zero
)

// String returns the indicator's spelling ("" for exactly-one).
func (o Occurrence) String() string {
	return [...]string{"", "?", "*", "+", "0"}[o]
}

// Lo returns the minimum item count (0 or 1) the bound admits.
func (o Occurrence) Lo() int {
	if o == One || o == OneOrMore {
		return 1
	}
	return 0
}

// Hi returns the maximum item count the bound admits, with 2 standing in for
// "unbounded".
func (o Occurrence) Hi() int {
	switch o {
	case Zero:
		return 0
	case One, Optional:
		return 1
	}
	return 2
}

// occurrenceOf canonicalizes interval bounds back into an Occurrence.
func occurrenceOf(lo, hi int) Occurrence {
	switch {
	case hi <= 0:
		return Zero
	case hi == 1 && lo >= 1:
		return One
	case hi == 1:
		return Optional
	case lo >= 1:
		return OneOrMore
	}
	return ZeroOrMore
}

// Join is the least upper bound: the tightest bound admitting both operands
// (the if/typeswitch/try rule).
func (o Occurrence) Join(p Occurrence) Occurrence {
	return occurrenceOf(min(o.Lo(), p.Lo()), max(o.Hi(), p.Hi()))
}

// Meet is the greatest lower bound: the counts both operands admit. An empty
// intersection — no value can satisfy both — reports Zero.
func (o Occurrence) Meet(p Occurrence) Occurrence {
	return occurrenceOf(max(o.Lo(), p.Lo()), min(o.Hi(), p.Hi()))
}

// Concat is sequence concatenation: item counts add (the comma rule).
func (o Occurrence) Concat(p Occurrence) Occurrence {
	return occurrenceOf(min(o.Lo()+p.Lo(), 1), min(o.Hi()+p.Hi(), 2))
}

// Product is iteration: item counts multiply (the FLWOR for rule — a body
// producing p per binding over a range producing o).
func (o Occurrence) Product(p Occurrence) Occurrence {
	return occurrenceOf(o.Lo()*p.Lo(), min(o.Hi()*p.Hi(), 2))
}

// Sub reports o ⊑ p: every count o admits, p admits too.
func (o Occurrence) Sub(p Occurrence) bool {
	return p.Lo() <= o.Lo() && o.Hi() <= p.Hi()
}

// ItemTestKind classifies an item test.
type ItemTestKind int

// Item test kinds: item(), atomic type names, and the node kind tests.
const (
	TestAnyItem ItemTestKind = iota
	TestAtomic               // a named atomic type, e.g. xs:string
	TestAnyNode
	TestElement // element() or element(name)
	TestAttribute
	TestText
	TestComment
	TestPI
	TestDocument
	TestEmptySequence // empty-sequence()
)

// SequenceType is a parsed sequence type: an item test plus occurrence.
type SequenceType struct {
	Kind       ItemTestKind
	Type       *AtomicType // for TestAtomic: the named type's row
	NodeName   string      // for TestElement/TestAttribute: required name, "" = any
	Occurrence Occurrence
}

// AnySequence is the sequence type item()*.
var AnySequence = SequenceType{Kind: TestAnyItem, Occurrence: ZeroOrMore}

// String renders the sequence type in XQuery syntax.
func (t SequenceType) String() string {
	var core string
	switch t.Kind {
	case TestAnyItem:
		core = "item()"
	case TestAtomic:
		core = t.Type.Name
	case TestAnyNode:
		core = "node()"
	case TestElement:
		core = "element(" + t.NodeName + ")"
	case TestAttribute:
		core = "attribute(" + t.NodeName + ")"
	case TestText:
		core = "text()"
	case TestComment:
		core = "comment()"
	case TestPI:
		core = "processing-instruction()"
	case TestDocument:
		core = "document-node()"
	case TestEmptySequence:
		return "empty-sequence()"
	}
	return core + t.Occurrence.String()
}

// MatchesItem reports whether a single item satisfies the item test.
func (t SequenceType) MatchesItem(it Item) bool {
	switch t.Kind {
	case TestAnyItem:
		return true
	case TestEmptySequence:
		return false
	case TestAtomic:
		return t.Type.matches(it)
	}
	n, ok := IsNode(it)
	if !ok {
		return false
	}
	switch t.Kind {
	case TestAnyNode:
		return true
	case TestElement:
		return n.Kind == xmltree.ElementNode && (t.NodeName == "" || t.NodeName == "*" || n.Name == t.NodeName)
	case TestAttribute:
		return n.Kind == xmltree.AttributeNode && (t.NodeName == "" || t.NodeName == "*" || n.Name == t.NodeName)
	case TestText:
		return n.Kind == xmltree.TextNode
	case TestComment:
		return n.Kind == xmltree.CommentNode
	case TestPI:
		return n.Kind == xmltree.PINode && (t.NodeName == "" || n.Name == t.NodeName)
	case TestDocument:
		return n.Kind == xmltree.DocumentNode
	}
	return false
}

// Matches reports whether a sequence satisfies the sequence type.
func (t SequenceType) Matches(s Sequence) bool {
	if t.Kind == TestEmptySequence {
		return len(s) == 0
	}
	if o := t.Occurrence; len(s) < o.Lo() || (o.Hi() < 2 && len(s) > o.Hi()) {
		return false
	}
	for _, it := range s {
		if !t.MatchesItem(it) {
			return false
		}
	}
	return true
}

// Kinds is a set of atomic item kinds: the upper bound a static fact puts on
// the atomic items of a value, and the vocabulary the atomic-type table below
// is written in. KNone means "no atomic items"; KAny is the uninformative
// top. Join is bitwise union. Nodes have no kind: a fact about them is stated
// beside the set (Shape.NodeFree, funclib.Func.NodeFree).
type Kinds uint8

// Atomic-kind bits, one per atomic item type.
const (
	KInt Kinds = 1 << iota
	KDec
	KDbl
	KBool
	KStr
	KUntyped
)

// Derived bounds.
const (
	KNone Kinds = 0
	KNum        = KInt | KDec | KDbl
	KAny        = KNum | KBool | KStr | KUntyped
)

// KindOf returns the kind of one item: its bit for an atomic value, KNone for
// a node.
func KindOf(it Item) Kinds {
	switch it.(type) {
	case Integer:
		return KInt
	case Decimal:
		return KDec
	case Double:
		return KDbl
	case Boolean:
		return KBool
	case String:
		return KStr
	case Untyped:
		return KUntyped
	}
	return KNone
}

// Sub reports k ⊆ b.
func (k Kinds) Sub(b Kinds) bool { return k&^b == 0 }

// String renders the set compactly.
func (k Kinds) String() string {
	switch k {
	case KNone:
		return "none"
	case KNum:
		return "numeric"
	case KAny:
		return "any"
	}
	var parts []string
	for i, name := range [...]string{"int", "dec", "dbl", "bool", "str", "untyped"} {
		if k&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, "|")
}

// AtomicType is the one description of a named atomic type: what `instance
// of` and parameter checks match, what `cast as`, `castable as` and the
// constructor function do, and what the shape analysis may assume of either.
// A row is found by name once — by the parser for a sequence type, by the
// compiler for a cast, by funclib.Lookup for a constructor call — and read by
// field thereafter.
type AtomicType struct {
	// Name is the spelling the row was looked up under (xs:int and xs:long
	// share xs:integer's facts but print as written).
	Name string
	// Matches are the kinds whose values match the type.
	Matches Kinds
	// Restricted reports that only some values of those kinds match: the two
	// range-restricted integers, which admit Integers from min up.
	Restricted bool
	min        Integer
	// Yields is the kind a successful cast produces; KAny, vacuously, for an
	// abstract type, to which every cast fails.
	Yields Kinds
	// SafeFrom are the source kinds from which the cast cannot fail.
	SafeFrom Kinds
	// cast converts an atomic item; nil for an abstract type (xs:numeric,
	// xs:anyAtomicType) and for a name the table does not hold.
	cast func(Item) (Item, error)
}

// atomicTypes is the table: one row per atomic type name the engine knows.
var atomicTypes = map[string]*AtomicType{}

// declare files a row under its name and its aliases (which share the facts
// and the cast, error wording included, but print as written).
func declare(t AtomicType, aliases ...string) *AtomicType {
	for _, name := range append(aliases, t.Name) {
		row := t
		row.Name = name
		atomicTypes[name] = &row
	}
	return atomicTypes[t.Name]
}

// IntegerType is xs:integer's row, exported for the callers that cast to it
// without a name in hand (range bounds, fn:remove's position).
var IntegerType = declare(AtomicType{Name: "xs:integer", Matches: KInt, Yields: KInt, SafeFrom: KInt | KDec | KBool, cast: castInteger},
	"xs:int", "xs:long")

var (
	_ = declare(AtomicType{Name: "xs:string", Matches: KStr, Yields: KStr, SafeFrom: KAny,
		cast: func(it Item) (Item, error) { return String(it.StringValue()), nil }})
	_ = declare(AtomicType{Name: "xs:untypedAtomic", Matches: KUntyped, Yields: KUntyped, SafeFrom: KAny,
		cast: func(it Item) (Item, error) { return Untyped(it.StringValue()), nil }}, "xdt:untypedAtomic")
	_ = declare(AtomicType{Name: "xs:boolean", Matches: KBool, Yields: KBool, SafeFrom: KNum | KBool, cast: castBoolean})
	_ = declare(AtomicType{Name: "xs:decimal", Matches: KInt | KDec, Yields: KDec, SafeFrom: KInt | KDec, cast: castDecimal})
	_ = declare(AtomicType{Name: "xs:double", Matches: KDbl, Yields: KDbl, SafeFrom: KNum, cast: castDouble}, "xs:float")
	// The restricted integers cast as xs:integer does and then check the
	// range, a check no source kind is safe from.
	_ = declare(AtomicType{Name: "xs:nonNegativeInteger", Matches: KInt, Restricted: true, min: 0, Yields: KInt, cast: castInteger})
	_ = declare(AtomicType{Name: "xs:positiveInteger", Matches: KInt, Restricted: true, min: 1, Yields: KInt, cast: castInteger})
	// Abstract: matched, never cast to.
	_ = declare(AtomicType{Name: "xs:anyAtomicType", Matches: KAny, Yields: KAny}, "xdt:anyAtomicType")
	_ = declare(AtomicType{Name: "xs:numeric", Matches: KNum, Yields: KAny})
)

// TypeNamed returns the row for a type name. A name the table does not hold
// gets an abstract row of its own — it matches nothing and casting to it
// raises XPST0051 — so every consumer reads a row and none tests for absence.
// ctor reports IsSchemaName(name).
func TypeNamed(name string) (t *AtomicType, ctor bool) {
	ctor = IsSchemaName(name)
	if t, ok := atomicTypes[name]; ok {
		return t, ctor
	}
	return &AtomicType{Name: name, Yields: KAny}, ctor
}

// IsSchemaName reports that the name lies in a schema namespace and so
// doubles as a constructor function. It is the question to ask of a name that
// is probably not a type at all (a user function's): unlike TypeNamed it
// builds no row.
func IsSchemaName(name string) bool {
	return strings.HasPrefix(name, "xs:") || strings.HasPrefix(name, "xdt:")
}

// matches reports whether one item is an instance of the type.
func (t *AtomicType) matches(it Item) bool {
	return KindOf(it)&t.Matches != 0 && (!t.Restricted || it.(Integer) >= t.min)
}

// CastTo casts an atomic item to a type, per `cast as` and the xs:
// constructor functions. Abstract and unknown targets raise XPST0051, failed
// conversions FORG0001 (FOCA0002 for a non-finite double to an integer).
func CastTo(it Item, t *AtomicType) (Item, error) {
	if t.cast == nil {
		return nil, Errf("XPST0051", "unknown atomic type %s", t.Name)
	}
	out, err := t.cast(it)
	if err == nil && t.Restricted && out.(Integer) < t.min {
		return nil, Errf("FORG0001", "%s is out of range for %s", out.StringValue(), t.Name)
	}
	return out, err
}

func castBoolean(it Item) (Item, error) {
	switch v := it.(type) {
	case Boolean:
		return v, nil
	case Integer:
		return Boolean(v != 0), nil
	case Decimal:
		return Boolean(v != 0), nil
	case Double:
		return Boolean(float64(v) != 0 && !math.IsNaN(float64(v))), nil
	}
	s := strings.TrimSpace(it.StringValue())
	switch s {
	case "true", "1":
		return Boolean(true), nil
	case "false", "0":
		return Boolean(false), nil
	}
	return nil, Errf("FORG0001", "cannot cast %q to xs:boolean", s)
}

func castInteger(it Item) (Item, error) {
	switch v := it.(type) {
	case Integer:
		return v, nil
	case Decimal:
		return Integer(int64(v)), nil
	case Double:
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, Errf("FOCA0002", "cannot cast %s to xs:integer", it.StringValue())
		}
		return Integer(int64(f)), nil
	case Boolean:
		if v {
			return Integer(1), nil
		}
		return Integer(0), nil
	}
	s := strings.TrimSpace(it.StringValue())
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return nil, Errf("FORG0001", "cannot cast %q to xs:integer", s)
	}
	return Integer(i), nil
}

func castDecimal(it Item) (Item, error) {
	f, ok := castToFloat(it)
	if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, Errf("FORG0001", "cannot cast %q to xs:decimal", strings.TrimSpace(it.StringValue()))
	}
	return Decimal(f), nil
}

func castDouble(it Item) (Item, error) {
	f, ok := castToFloat(it)
	if !ok {
		return nil, Errf("FORG0001", "cannot cast %q to xs:double", strings.TrimSpace(it.StringValue()))
	}
	return Double(f), nil
}

func castToFloat(it Item) (float64, bool) {
	switch v := it.(type) {
	case Integer:
		return float64(v), true
	case Decimal:
		return float64(v), true
	case Double:
		return float64(v), true
	case Boolean:
		if v {
			return 1, true
		}
		return 0, true
	}
	s := strings.TrimSpace(it.StringValue())
	f := parseDouble(s)
	if math.IsNaN(f) && s != "NaN" {
		return 0, false
	}
	return f, true
}
