// Package xdm implements the XQuery Data Model (XDM) as used by the 2004
// working drafts: items (atomic values and nodes) and flat sequences.
//
// The central design point — and the one the paper's troubles revolve
// around — is that sequences are flat and cannot contain other sequences.
// The package encodes that in the type system: a Sequence is a []Item and
// Item has no sequence-shaped implementation, so nesting is unrepresentable,
// exactly as in XQuery where (1,(2,3),()) is (1,2,3).
package xdm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"lopsided/internal/xmltree"
)

// Item is a single XDM item: an atomic value or a node.
// Implementations: String, Integer, Decimal, Double, Boolean, Untyped,
// and *xmltree.Node wrapped in NodeItem.
type Item interface {
	// StringValue returns the item's string value (fn:string semantics).
	StringValue() string
	// TypeName returns the XDM type name, e.g. "xs:integer" or "element()".
	TypeName() string
}

// String is an xs:string atomic value.
type String string

// StringValue implements Item.
func (s String) StringValue() string { return string(s) }

// TypeName implements Item.
func (String) TypeName() string { return "xs:string" }

// Untyped is an xs:untypedAtomic value: the result of atomizing nodes in
// untyped (schema-less) mode, which is the mode the paper's project ran in.
type Untyped string

// StringValue implements Item.
func (u Untyped) StringValue() string { return string(u) }

// TypeName implements Item.
func (Untyped) TypeName() string { return "xs:untypedAtomic" }

// Integer is an xs:integer atomic value.
type Integer int64

// StringValue implements Item.
func (i Integer) StringValue() string { return strconv.FormatInt(int64(i), 10) }

// TypeName implements Item.
func (Integer) TypeName() string { return "xs:integer" }

// Double is an xs:double atomic value.
type Double float64

// StringValue implements Item.
func (d Double) StringValue() string {
	f := float64(d)
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	}
	return formatNumber(f)
}

// TypeName implements Item.
func (Double) TypeName() string { return "xs:double" }

// Boolean is an xs:boolean atomic value.
type Boolean bool

// StringValue implements Item.
func (b Boolean) StringValue() string {
	if b {
		return "true"
	}
	return "false"
}

// TypeName implements Item.
func (Boolean) TypeName() string { return "xs:boolean" }

// NodeItem wraps an XML node as an XDM item.
type NodeItem struct{ Node *xmltree.Node }

// StringValue implements Item.
func (n NodeItem) StringValue() string { return n.Node.StringValue() }

// TypeName implements Item.
func (n NodeItem) TypeName() string { return n.Node.Kind.String() }

// NewNode wraps a node as an item.
func NewNode(n *xmltree.Node) NodeItem { return NodeItem{Node: n} }

// IsNode reports whether the item is a node and returns it.
func IsNode(it Item) (*xmltree.Node, bool) {
	if n, ok := it.(NodeItem); ok {
		return n.Node, true
	}
	return nil, false
}

// IsNumeric reports whether the item is one of the numeric atomic types.
func IsNumeric(it Item) bool {
	switch it.(type) {
	case Integer, Decimal, Double:
		return true
	}
	return false
}

// formatNumber renders a double the way XQuery serializes it in the common
// range: no exponent, no trailing ".0" for integral values.
func formatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Normalize Go's exponent form slightly toward XQuery's (E upper case).
	return strings.Replace(s, "e", "E", 1)
}

// NumberOf converts an item to xs:double per fn:number: numerics pass
// through, strings and untyped parse (NaN on failure), booleans map to 0/1,
// nodes atomize first.
func NumberOf(it Item) float64 {
	switch v := it.(type) {
	case Integer:
		return float64(v)
	case Decimal:
		return v.float()
	case Double:
		return float64(v)
	case Boolean:
		if v {
			return 1
		}
		return 0
	case String:
		return parseDouble(string(v))
	case Untyped:
		return parseDouble(string(v))
	case NodeItem:
		return parseDouble(v.Node.StringValue())
	}
	return math.NaN()
}

func parseDouble(s string) float64 {
	s = strings.TrimSpace(s)
	switch s {
	case "INF":
		return math.Inf(1)
	case "-INF":
		return math.Inf(-1)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// Error is a data-model error carrying an XQuery error code (e.g. FORG0006).
type Error struct {
	Code string
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// Errf constructs an *Error with a formatted message.
func Errf(code, format string, args ...interface{}) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}
