// Package ast defines the abstract syntax tree for the XQuery subset: the
// expression forms of the 2004 working drafts that the paper's program used,
// plus the prolog (function and variable declarations).
package ast

import (
	"strings"

	"lopsided/internal/xdm"
)

// Pos is a 1-based source position.
type Pos struct {
	Line, Col int
}

// Expr is any XQuery expression.
type Expr interface {
	Pos() Pos
	exprNode()
}

type Base struct{ P Pos }

// Pos returns the expression's source position.
func (b Base) Pos() Pos { return b.P }
func (Base) exprNode()  {}

// ---- Literals and primaries ----

// StringLit is a string literal.
type StringLit struct {
	Base
	Value string
}

// IntLit is an xs:integer literal.
type IntLit struct {
	Base
	Value int64
}

// DecimalLit is an xs:decimal literal (digits with a decimal point).
type DecimalLit struct {
	Base
	Value float64
}

// DoubleLit is an xs:double literal (exponent form).
type DoubleLit struct {
	Base
	Value float64
}

// VarRef is a variable reference $name. Name may contain '-', the paper's
// quirk #3: $n-1 is a single three-character variable name.
type VarRef struct {
	Base
	Name string
}

// ContextItem is the expression "." (the current node, Galax's $glx:dot).
type ContextItem struct{ Base }

// EmptySeq is the literal empty sequence "()".
type EmptySeq struct{ Base }

// SequenceExpr is the comma operator; evaluation concatenates (flattens).
type SequenceExpr struct {
	Base
	Items []Expr
}

// RangeExpr is "Lo to Hi".
type RangeExpr struct {
	Base
	Lo, Hi Expr
}

// ---- Operators ----

// BinOpKind classifies binary operators.
type BinOpKind int

// Binary operator kinds.
const (
	OpOr BinOpKind = iota
	OpAnd
	OpGeneralComp // =, !=, <, <=, >, >= (existential)
	OpValueComp   // eq, ne, lt, le, gt, ge (singleton)
	OpNodeIs      // is
	OpNodeBefore  // <<
	OpNodeAfter   // >>
	OpArith       // + - * div idiv mod
	OpUnion       // union, |
	OpIntersect
	OpExcept
	OpConcat // string concatenation (||, late addition; parsed for convenience)
)

// Binary is a binary operator expression. For comparisons Cmp is set; for
// arithmetic Arith is set.
type Binary struct {
	Base
	Kind  BinOpKind
	Cmp   xdm.CompareOp
	Arith xdm.ArithOp
	L, R  Expr
}

// Unary is unary plus/minus.
type Unary struct {
	Base
	Minus   bool
	Operand Expr
}

// ---- Paths ----

// Axis identifies an XPath axis.
type Axis int

// The axes of the subset.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisAttribute
	AxisSelf
	AxisDescendantOrSelf
	AxisFollowingSibling
	AxisFollowing
	AxisParent
	AxisAncestor
	AxisPrecedingSibling
	AxisPreceding
	AxisAncestorOrSelf
)

// String returns the axis name as written in XPath.
func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisAttribute:
		return "attribute"
	case AxisSelf:
		return "self"
	case AxisDescendantOrSelf:
		return "descendant-or-self"
	case AxisFollowingSibling:
		return "following-sibling"
	case AxisFollowing:
		return "following"
	case AxisParent:
		return "parent"
	case AxisAncestor:
		return "ancestor"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	case AxisPreceding:
		return "preceding"
	case AxisAncestorOrSelf:
		return "ancestor-or-self"
	}
	return "?"
}

// Reverse reports whether the axis is a reverse axis (position counts
// backward from the context node).
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisPrecedingSibling, AxisPreceding, AxisAncestorOrSelf:
		return true
	}
	return false
}

// NodeTest is a name test or kind test applied by an axis step.
type NodeTest struct {
	// Name is the name test: "x", "pre:x", "*", "pre:*", or "*:local".
	// Empty when Kind is set.
	Name string
	// Kind, when non-nil, is a kind test such as text() or element(a).
	Kind *xdm.SequenceType
}

// AccessKind names how a step's node set is produced at runtime.
type AccessKind int

// The access paths the optimizer can choose for a step.
const (
	// AccessTreeWalk is the default: evaluate the axis by walking the tree.
	AccessTreeWalk AccessKind = iota
	// AccessIndexScan serves the step from the element-name (and, when an
	// attribute predicate was folded in, the attribute/value) index of the
	// context node's frozen tree, falling back to a walk when no index is
	// available for the tree at hand.
	AccessIndexScan
)

// String returns the access-path name as printed by EXPLAIN.
func (k AccessKind) String() string {
	if k == AccessIndexScan {
		return "IndexScan"
	}
	return "TreeWalk"
}

// AccessPath records the optimizer's access-path decision for one step. It
// is advisory toward an equivalent plan: the interpreter must produce
// identical results (order, identity, errors) whether the probe is served
// or falls back to the walk.
type AccessPath struct {
	Kind AccessKind
	// AttrName and AttrKey, when set, say that the step's first predicate is
	// [@attr = key] (see AttrEq) with a key the planner found focus-free and
	// effect-free — a string literal is the constant case — and that the
	// probe answers it: an annotation, the predicate itself stays in
	// Step.Preds. The runtime evaluates the key once per step invocation and
	// applies the condition existentially over every same-named attribute —
	// duplicate-attribute trees make first-match unsound.
	AttrName string
	AttrKey  Expr
	// Fused marks a descendant step the planner built by collapsing a
	// descendant-or-self::node()/child::name pair.
	Fused bool
	// Reason is the human-readable eligibility (or fallback) rationale
	// printed by EXPLAIN, which appends the folded predicate, if any.
	Reason string
}

// Step is one step of a path: either an axis step (Axis+Test) or a filter
// step (Primary non-nil), each with predicates.
type Step struct {
	// Axis step fields.
	Axis Axis
	Test NodeTest
	// Primary, when non-nil, makes this a filter step (a primary expression
	// with predicates), and Axis/Test are ignored.
	Primary Expr
	Preds   []Expr
	// Access is the optimizer's access-path decision, nil until planned
	// (unplanned steps tree-walk).
	Access *AccessPath
	P      Pos
}

// PlainName returns the step's exact name test: an axis step whose test is
// a literal name with no wildcard component. Prefixed names qualify (trees
// and indexes store full lexical names).
func (s Step) PlainName() (string, bool) {
	if s.Primary != nil || s.Test.Kind != nil || s.Test.Name == "" || strings.Contains(s.Test.Name, "*") {
		return "", false
	}
	return s.Test.Name, true
}

// IsDescendantOrSelfNode recognizes the bare descendant-or-self::node() step
// the parser emits for an interior `//`. A predicate makes it an ordinary
// step.
func (s Step) IsDescendantOrSelfNode() bool {
	return s.Primary == nil && len(s.Preds) == 0 && s.Axis == AxisDescendantOrSelf &&
		s.Test.Kind != nil && s.Test.Kind.Kind == xdm.TestAnyNode
}

// AttrEq recognizes the predicate shape @attr = key (either operand order):
// a general = comparison one of whose operands is a bare single-step
// attribute path with a plain name; the other operand is the key. Only the
// general comparison qualifies — it is existential and cannot raise on
// duplicate attributes, unlike the value comparison `eq` (XPTY0004 on a
// two-item sequence). Whether the key is one an index can be probed with is
// the caller's question.
func AttrEq(e Expr) (attr string, key Expr, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || b.Kind != OpGeneralComp || b.Cmp != xdm.OpEq {
		return "", nil, false
	}
	if attr, ok = bareAttrStep(b.L); ok {
		return attr, b.R, true
	}
	attr, ok = bareAttrStep(b.R)
	return attr, b.L, ok
}

func bareAttrStep(e Expr) (attr string, ok bool) {
	p, isPath := e.(*PathExpr)
	if !isPath || p.Root != RootNone || len(p.Steps) != 1 {
		return "", false
	}
	s := p.Steps[0]
	if s.Axis != AxisAttribute || len(s.Preds) != 0 {
		return "", false
	}
	return s.PlainName()
}

// AttrEqLiteral is AttrEq with a string-literal key: string-literal
// comparison of untyped attribute values is exact string equality, which is
// what a token's attribute value can answer with no evaluator at hand.
func AttrEqLiteral(e Expr) (attr, value string, ok bool) {
	attr, key, ok := AttrEq(e)
	lit, isLit := key.(*StringLit)
	if !ok || !isLit {
		return "", "", false
	}
	return attr, lit.Value, true
}

// PathRoot describes how a path is rooted.
type PathRoot int

// Path rootings: relative, "/..." (document root), "//..." (root then
// descendant-or-self).
const (
	RootNone PathRoot = iota
	RootSlash
	RootSlashSlash
)

// PathExpr is a path: optional rooting followed by steps. A lone "/" is
// Root=RootSlash with no steps.
type PathExpr struct {
	Base
	Root  PathRoot
	Steps []Step
}

// ---- FLWOR ----

// ForClause binds Var (and optionally PosVar via "at") to items of In.
type ForClause struct {
	Var    string
	PosVar string // "" if no "at $p"
	In     Expr
	P      Pos
}

// LetClause binds Var to the value of the expression.
type LetClause struct {
	Var string
	Val Expr
	P   Pos
}

// FLWORClause is either a ForClause or a LetClause.
type FLWORClause interface{ flworClause() }

func (ForClause) flworClause() {}
func (LetClause) flworClause() {}

// OrderSpec is one "order by" key.
type OrderSpec struct {
	Key        Expr
	Descending bool
	EmptyLeast bool
}

// FLWOR is a for/let/where/order by/return expression.
type FLWOR struct {
	Base
	Clauses []FLWORClause
	Where   Expr // nil if absent
	OrderBy []OrderSpec
	Stable  bool
	Return  Expr
}

// Quantified is "some/every $v in E (, ...) satisfies E".
type Quantified struct {
	Base
	Every   bool
	Vars    []ForClause // PosVar unused
	Satisfy Expr
}

// IfExpr is if (Cond) then Then else Else.
type IfExpr struct {
	Base
	Cond, Then, Else Expr
}

// TypeswitchCase is one case of a typeswitch.
type TypeswitchCase struct {
	Var  string // "" if no variable binding
	Type xdm.SequenceType
	Ret  Expr
}

// Typeswitch is "typeswitch (E) case ... default ...".
type Typeswitch struct {
	Base
	Operand    Expr
	Cases      []TypeswitchCase
	DefaultVar string
	Default    Expr
}

// ---- Function calls and type operators ----

// FunctionCall is a static function call.
type FunctionCall struct {
	Base
	Name string
	Args []Expr
}

// InstanceOf is "E instance of T".
type InstanceOf struct {
	Base
	Operand Expr
	Type    xdm.SequenceType
}

// CastableAs is "E castable as T".
type CastableAs struct {
	Base
	Operand  Expr
	TypeName string
	Optional bool
}

// CastAs is "E cast as T".
type CastAs struct {
	Base
	Operand  Expr
	TypeName string
	Optional bool
}

// TryCatch is "try { E } catch ($v)? { E }" — the rudimentary exception
// handling the paper's lesson #4 calls for ("a single type 'Exception'
// capable of holding a map with arbitrary data in it"). It is an extension
// over the 2004 draft (XQuery did not grow try/catch until 3.0); the
// engine implements it so the ablation experiment can measure what the
// paper's team was missing. CatchVar, when set, binds the error's
// description string; CatchCodeVar binds the error code.
type TryCatch struct {
	Base
	Try          Expr
	CatchVar     string // "" if unbound
	CatchCodeVar string // "" if unbound
	Catch        Expr
}

// TreatAs is "E treat as T" (dynamic type assertion).
type TreatAs struct {
	Base
	Operand Expr
	Type    xdm.SequenceType
}

// ---- Constructors ----

// DirAttr is one attribute of a direct element constructor; its value is a
// concatenation of literal string parts and enclosed expressions.
type DirAttr struct {
	Name  string
	Parts []Expr // StringLit for literal runs, arbitrary Expr for {...}
	P     Pos
}

// DirElem is a direct element constructor <name attr="...">content</name>.
// Content items are StringLit (literal text runs), nested constructors, and
// enclosed expressions.
type DirElem struct {
	Base
	Name    string
	Attrs   []DirAttr
	Content []Expr
	// LiteralText marks which Content entries are literal text runs from
	// the constructor body (candidates for boundary-whitespace stripping),
	// as opposed to enclosed string expressions.
	LiteralText []bool
}

// DirComment is a direct comment constructor <!-- ... -->.
type DirComment struct {
	Base
	Data string
}

// DirPI is a direct processing-instruction constructor <?target data?>.
type DirPI struct {
	Base
	Target, Data string
}

// CompElem is a computed element constructor: element {NameExpr} {Content}
// or element name {Content}.
type CompElem struct {
	Base
	Name     string // static name, "" when NameExpr used
	NameExpr Expr
	Content  Expr // nil for empty
}

// CompAttr is a computed attribute constructor.
type CompAttr struct {
	Base
	Name     string
	NameExpr Expr
	Content  Expr
}

// CompText is a computed text node constructor: text {E}.
type CompText struct {
	Base
	Content Expr
}

// CompComment is a computed comment constructor: comment {E}.
type CompComment struct {
	Base
	Content Expr
}

// CompPI is a computed processing-instruction constructor.
type CompPI struct {
	Base
	Target  string
	Content Expr
}

// CompDoc is a computed document constructor: document {E}.
type CompDoc struct {
	Base
	Content Expr
}

// ---- Prolog and module ----

// Param is a declared function parameter.
type Param struct {
	Name string
	Type xdm.SequenceType // AnySequence when undeclared
}

// FuncDecl is a user function declaration from the prolog.
type FuncDecl struct {
	Name   string
	Params []Param
	Ret    xdm.SequenceType
	Body   Expr
	P      Pos
}

// VarDecl is a prolog variable declaration.
type VarDecl struct {
	Name string
	Val  Expr // nil for "external"
	P    Pos
}

// Module is a parsed main module: the prolog plus either a body expression
// (a query) or a statement sequence (an update program, which FLUX defines
// over the same prolog and core expression language).
type Module struct {
	// Namespaces maps declared prefixes to URIs. The subset records them
	// but matches names textually (prefix-literal matching), which is how
	// the untyped AWB pipeline behaved in practice.
	Namespaces map[string]string
	// BoundarySpacePreserve reflects "declare boundary-space preserve".
	BoundarySpacePreserve bool
	Functions             []*FuncDecl
	Vars                  []*VarDecl
	// Body is the query body; nil for an update program.
	Body Expr
	// Stmts is the update program's statement sequence; nil for a query.
	Stmts []UpdateStmt
	// ElidedTraces records fn:trace call sites the optimizer's dead-code
	// pass removed (the Galax quirk). The compiled runtime reports each of
	// them to the host tracer once per evaluation, flagged as elided, so
	// structured tracing can never be silently optimized away.
	ElidedTraces []ElidedTrace
}

// ElidedTrace is one fn:trace call site removed by dead-let elimination:
// its position and whatever arguments were statically known (literals;
// anything computed is rendered as "…" because the computation is gone).
type ElidedTrace struct {
	P      Pos
	Values []string
}

// ---- Update sublanguage (FLUX-style) ----

// UpdateStmt is one statement of the update sublanguage. Statements are not
// expressions: they produce pending updates, never values, which is what
// keeps the sublanguage's composition rules small. Their embedded target
// and content expressions are ordinary Exprs and ride the whole expression
// pipeline (optimizer, access paths, closure compilation).
type UpdateStmt interface {
	Pos() Pos
	updateStmt()
}

// InsertPlacement says where insert puts its content relative to the target.
type InsertPlacement int

// Insert placements.
const (
	// InsertInto appends content inside the target element.
	InsertInto InsertPlacement = iota
	// InsertBefore inserts content as preceding siblings of the target.
	InsertBefore
	// InsertAfter inserts content as following siblings of the target.
	InsertAfter
)

func (p InsertPlacement) String() string {
	switch p {
	case InsertInto:
		return "into"
	case InsertBefore:
		return "before"
	case InsertAfter:
		return "after"
	}
	return "?"
}

// InsertStmt is `insert <source> into|before|after <target>`.
type InsertStmt struct {
	P         Pos
	Source    Expr
	Placement InsertPlacement
	Target    Expr
}

// DeleteStmt is `delete <target>`. The target may be any node sequence;
// deleting nothing is a no-op, per the Update Facility.
type DeleteStmt struct {
	P      Pos
	Target Expr
}

// ReplaceStmt is `replace <target> with <source>`.
type ReplaceStmt struct {
	P      Pos
	Target Expr
	Source Expr
}

// RenameStmt is `rename <target> as <name>`. Name is an expression (usually
// a string literal) whose atomized value becomes the new name.
type RenameStmt struct {
	P      Pos
	Target Expr
	Name   Expr
}

// ForStmt is `for $v in <seq> (where <cond>)? return <stmt>`: the update
// sublanguage's iteration form. Body holds one statement or a parenthesized
// block.
type ForStmt struct {
	P     Pos
	Var   string
	In    Expr
	Where Expr // nil when absent
	Body  []UpdateStmt
}

// BlockStmt is a parenthesized statement sequence: `(s1; s2; ...)`.
type BlockStmt struct {
	P     Pos
	Stmts []UpdateStmt
}

func (s *InsertStmt) Pos() Pos  { return s.P }
func (s *DeleteStmt) Pos() Pos  { return s.P }
func (s *ReplaceStmt) Pos() Pos { return s.P }
func (s *RenameStmt) Pos() Pos  { return s.P }
func (s *ForStmt) Pos() Pos     { return s.P }
func (s *BlockStmt) Pos() Pos   { return s.P }

func (*InsertStmt) updateStmt()  {}
func (*DeleteStmt) updateStmt()  {}
func (*ReplaceStmt) updateStmt() {}
func (*RenameStmt) updateStmt()  {}
func (*ForStmt) updateStmt()     {}
func (*BlockStmt) updateStmt()   {}

// At builds a Base with the given position; used by the parser.
func At(p Pos) Base { return Base{P: p} }
