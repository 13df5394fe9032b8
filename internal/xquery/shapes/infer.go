package shapes

// The inference pass proper: a forward walk over the optimized AST mirroring
// the closure compiler's evaluation order, flowing Shape facts through
// binders and recording a fact per expression node.
//
// Static diagnostics follow a must/unsure discipline. A diagnostic may only
// be reported for an expression that (a) definitely evaluates whenever the
// query body evaluates ("must" position) and (b) is not preceded, in
// evaluation order, by any must-position expression that might itself raise
// (the sticky `unsure` flag) — otherwise the compile-time error could
// preempt a different runtime error and the differential oracle would see a
// code change. Conditional positions (if/typeswitch branches, FLWOR returns,
// predicates, try bodies, function bodies, update statements) infer with
// must=false: full facts, no diagnostics.

import (
	"fmt"

	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/funclib"
)

// Diag is a compile-time error the inference proved inevitable: evaluating
// the module body must raise this code at this position.
type Diag struct {
	Code string
	Msg  string
	P    ast.Pos
}

// Warning is an advisory finding (e.g. a statically empty path step, the
// XPST0005 class) surfaced through EXPLAIN, never as an error.
type Warning struct {
	Code string
	Msg  string
	P    ast.Pos
}

// Info is the result of inference over a module: a shape per expression
// node plus any diagnostics and warnings.
type Info struct {
	shapes   map[ast.Expr]Shape
	Diags    []Diag
	Warnings []Warning
}

// Of returns the inferred shape for an expression node, if one was recorded.
func (in *Info) Of(e ast.Expr) (Shape, bool) {
	s, ok := in.shapes[e]
	return s, ok
}

// FirstDiag returns the first inevitable-error diagnostic, or nil.
func (in *Info) FirstDiag() *Diag {
	if len(in.Diags) == 0 {
		return nil
	}
	return &in.Diags[0]
}

// Scope supplies name-resolution callbacks for probe-mode inference
// (InferExpr), where the caller knows the lexical environment but no prolog
// is at hand.
type Scope struct {
	// InScope reports whether a variable name is bound in the surrounding
	// lexical environment (reading it cannot fail).
	InScope func(name string) bool
	// IsUserFunc reports whether any user function with this name (at any
	// arity) is declared; such calls never resolve to built-in signatures.
	IsUserFunc func(name string) bool
	// HasFocus promises a context item exists wherever the probed expression
	// evaluates (e.g. inside a step predicate), so a bare `.` cannot raise
	// XPDY0002. It says nothing about the item's kind: paths and focus
	// built-ins keep their usual conservative shapes.
	HasFocus bool
}

type analyzer struct {
	info    *Info
	frames  []map[string]Shape
	globals map[string]Shape
	funcs   map[string]*ast.FuncDecl // "name/arity" → decl
	sc      Scope
	// unsure is the sticky flag: a must-position expression that might
	// raise has been seen, so later diagnostics are suppressed.
	unsure bool
	// diags enables diagnostic/warning recording (module inference only).
	diags bool
}

func newAnalyzer() *analyzer {
	return &analyzer{
		info:    &Info{shapes: make(map[ast.Expr]Shape)},
		globals: make(map[string]Shape),
		funcs:   make(map[string]*ast.FuncDecl),
	}
}

func funcKey(name string, arity int) string {
	return fmt.Sprintf("%s/%d", name, arity)
}

// InferModule runs inference over a full (optimized) main module, returning
// per-expression shapes, inevitable-error diagnostics, and warnings. An
// update program's statements never receive diagnostics or warnings (the
// statement pipeline has its own oracle and error order); their shapes
// serve EXPLAIN only.
func InferModule(mod *ast.Module) *Info {
	a := newAnalyzer()
	a.diags = mod.Stmts == nil
	a.bindProlog(mod)
	if mod.Body != nil {
		a.infer(mod.Body, true)
	}
	for _, st := range mod.Stmts {
		a.inferStmt(st)
	}
	return a.info
}

// InferExpr infers a shape for a standalone expression with sc resolving
// free names. No pass of the engine calls it: the tests that hold a
// built-in's row to its inferred shape, and the optimizer's dead-let
// whitelist to totality, read through it.
func InferExpr(e ast.Expr, sc Scope) Shape {
	a := newAnalyzer()
	a.sc = sc
	return a.infer(e, false)
}

// bindProlog seeds the function table, infers global variable values (in
// declaration order, matching evaluation), and analyzes function bodies.
func (a *analyzer) bindProlog(mod *ast.Module) {
	for _, f := range mod.Functions {
		a.funcs[funcKey(f.Name, len(f.Params))] = f
	}
	for _, v := range mod.Vars {
		if v.Val == nil {
			// External: the bound reference is total, the value unknown —
			// but a missing binding errors before the body runs, so the
			// body's diagnostics can no longer claim to fire first.
			a.globals[v.Name] = Shape{Occ: xdm.ZeroOrMore, Atomic: xdm.KAny, Total: true}
			a.unsure = true
			continue
		}
		sh := a.infer(v.Val, false)
		if !sh.Total {
			// Globals evaluate before the body; a raising global preempts
			// any body diagnostic.
			a.unsure = true
		}
		sh.Total = true // reading the already-computed binding cannot fail
		a.globals[v.Name] = sh
	}
	for _, f := range mod.Functions {
		frame := make(map[string]Shape, len(f.Params))
		for _, p := range f.Params {
			psh := shapeFromSeqType(p.Type)
			psh.Total = true
			frame[p.Name] = psh
		}
		a.frames = append(a.frames, frame)
		a.infer(f.Body, false)
		a.frames = a.frames[:len(a.frames)-1]
	}
}

func (a *analyzer) push(frame map[string]Shape) { a.frames = append(a.frames, frame) }
func (a *analyzer) pop()                        { a.frames = a.frames[:len(a.frames)-1] }

func (a *analyzer) lookupVar(name string) Shape {
	for i := len(a.frames) - 1; i >= 0; i-- {
		if sh, ok := a.frames[i][name]; ok {
			return sh
		}
	}
	if sh, ok := a.globals[name]; ok {
		return sh
	}
	if a.sc.InScope != nil && a.sc.InScope(name) {
		// Bound in the caller's environment: the read is total, the value
		// unknown.
		return Shape{Occ: xdm.ZeroOrMore, Atomic: xdm.KAny, Total: true}
	}
	return Shape{Occ: xdm.ZeroOrMore, Atomic: xdm.KAny}
}

func (a *analyzer) diag(must bool, code string, p ast.Pos, format string, args ...any) {
	if !a.diags || !must || a.unsure {
		return
	}
	a.info.Diags = append(a.info.Diags, Diag{Code: code, Msg: fmt.Sprintf(format, args...), P: p})
}

func (a *analyzer) warn(code string, p ast.Pos, format string, args ...any) {
	if !a.diags {
		return
	}
	a.info.Warnings = append(a.info.Warnings, Warning{Code: code, Msg: fmt.Sprintf(format, args...), P: p})
}

// infer computes and records the shape of e. must marks a position that
// definitely evaluates whenever the body evaluates; it both gates
// diagnostics and feeds the sticky unsure flag.
func (a *analyzer) infer(e ast.Expr, must bool) Shape {
	sh := a.inferRaw(e, must).norm()
	a.info.shapes[e] = sh
	if must && !sh.Total {
		a.unsure = true
	}
	return sh
}

func (a *analyzer) inferRaw(e ast.Expr, must bool) Shape {
	switch n := e.(type) {
	case *ast.StringLit:
		return one(xdm.KStr)
	case *ast.IntLit:
		return one(xdm.KInt)
	case *ast.DecimalLit:
		return one(xdm.KDec)
	case *ast.DoubleLit:
		return one(xdm.KDbl)
	case *ast.VarRef:
		return a.lookupVar(n.Name)
	case *ast.ContextItem:
		// One item when a focus exists; XPDY0002 when not — total only when
		// the caller vouches for the focus.
		return Shape{Occ: xdm.One, Atomic: xdm.KAny, Total: a.sc.HasFocus}
	case *ast.EmptySeq:
		return emptyShape(true)
	case *ast.SequenceExpr:
		out := emptyShape(true)
		for _, it := range n.Items {
			out = Concat(out, a.infer(it, must))
		}
		return out
	case *ast.RangeExpr:
		return a.inferRange(n, must)
	case *ast.Unary:
		return a.inferUnary(n, must)
	case *ast.Binary:
		return a.inferBinary(n, must)
	case *ast.IfExpr:
		cond := a.infer(n.Cond, must)
		t := a.infer(n.Then, false)
		el := a.infer(n.Else, false)
		sh := Join(t, el)
		sh.Total = sh.Total && cond.Total && cond.ebvSafe()
		return sh
	case *ast.FLWOR:
		return a.inferFLWOR(n, must)
	case *ast.Quantified:
		return a.inferQuantified(n, must)
	case *ast.Typeswitch:
		return a.inferTypeswitch(n, must)
	case *ast.PathExpr:
		return a.inferPath(n, must)
	case *ast.FunctionCall:
		return a.inferCall(n, must)
	case *ast.InstanceOf:
		op := a.infer(n.Operand, must)
		return Shape{Occ: xdm.One, Atomic: xdm.KBool, NodeFree: true, Total: op.Total}
	case *ast.CastableAs:
		// Cast failures — including the cardinality check — turn into
		// `false`, so castable is total whenever its operand is.
		op := a.infer(n.Operand, must)
		return Shape{Occ: xdm.One, Atomic: xdm.KBool, NodeFree: true, Total: op.Total}
	case *ast.CastAs:
		return a.inferCast(n, must)
	case *ast.TreatAs:
		op := a.infer(n.Operand, must)
		sh := meet(op, shapeFromSeqType(n.Type))
		// XPDY0050 unless the operand's shape already proves the treat.
		sh.Total = op.Total && Subsumes(op, n.Type)
		return sh
	case *ast.TryCatch:
		t := a.infer(n.Try, false)
		frame := map[string]Shape{}
		if n.CatchVar != "" {
			frame[n.CatchVar] = one(xdm.KStr)
		}
		if n.CatchCodeVar != "" {
			frame[n.CatchCodeVar] = one(xdm.KStr)
		}
		a.push(frame)
		c := a.infer(n.Catch, false)
		a.pop()
		if t.Total {
			return t // the catch branch is dead
		}
		sh := Join(t, c)
		sh.Total = c.Total // a raising try lands in the (total) catch
		return sh
	case *ast.DirElem:
		return a.inferDirElem(n, must)
	case *ast.DirComment, *ast.DirPI:
		return Shape{Occ: xdm.One, Total: true}
	case *ast.CompElem:
		total := n.NameExpr == nil
		if n.Content != nil {
			c := a.infer(n.Content, must)
			total = total && c.Total && c.NodeFree
		}
		return Shape{Occ: xdm.One, Total: total}
	case *ast.CompAttr:
		total := n.NameExpr == nil
		if n.NameExpr != nil {
			a.infer(n.NameExpr, must)
		}
		if n.Content != nil {
			c := a.infer(n.Content, must)
			total = total && c.Total
		}
		return Shape{Occ: xdm.One, Total: total}
	case *ast.CompText:
		c := a.infer(n.Content, must)
		// No text node materializes for empty content.
		if c.Occ.Lo() >= 1 {
			return Shape{Occ: xdm.One, Total: c.Total}
		}
		return Shape{Occ: xdm.Optional, Total: c.Total}
	case *ast.CompComment:
		a.infer(n.Content, must)
		return Shape{Occ: xdm.Optional}
	case *ast.CompPI:
		if n.Content != nil {
			a.infer(n.Content, must)
		}
		return Shape{Occ: xdm.Optional}
	case *ast.CompDoc:
		if n.Content != nil {
			a.infer(n.Content, must)
		}
		return Shape{Occ: xdm.One}
	}
	return unknown
}

func (a *analyzer) inferRange(n *ast.RangeExpr, must bool) Shape {
	a.infer(n.Lo, must)
	a.infer(n.Hi, must)
	if lo, ok := n.Lo.(*ast.IntLit); ok {
		if hi, ok2 := n.Hi.(*ast.IntLit); ok2 {
			switch {
			case lo.Value > hi.Value:
				return emptyShape(true)
			case xdm.RangeTooWide(lo.Value, hi.Value):
				// FOAR0002 at runtime; bounds are vacuous.
				return Shape{Occ: xdm.ZeroOrMore, Atomic: xdm.KInt, NodeFree: true}
			case lo.Value == hi.Value:
				return one(xdm.KInt)
			default:
				return Shape{Occ: xdm.OneOrMore, Atomic: xdm.KInt, NodeFree: true, Total: true}
			}
		}
	}
	// Non-literal bounds: the integer casts and the width guard can raise.
	return Shape{Occ: xdm.ZeroOrMore, Atomic: xdm.KInt, NodeFree: true}
}

func (a *analyzer) inferUnary(n *ast.Unary, must bool) Shape {
	op := a.infer(n.Operand, must)
	k := op.atomizedKind()
	if op.Total && op.Occ.Lo() >= 1 && op.NodeFree && op.Atomic != xdm.KNone && op.Atomic.Sub(xdm.KStr|xdm.KBool) {
		// A non-empty node-free string/boolean operand: a singleton raises
		// XPTY0004 from the operator, more than one from the cardinality
		// check — the same code either way.
		a.diag(must, "XPTY0004", n.P, "unary %s on a non-numeric operand", minusName(n.Minus))
	}
	out := xdm.Kinds(0)
	if k&xdm.KInt != 0 {
		out |= xdm.KInt
	}
	if k&xdm.KDec != 0 {
		out |= xdm.KDec
	}
	if k&(xdm.KDbl|xdm.KUntyped) != 0 {
		out |= xdm.KDbl
	}
	if out == 0 {
		out = xdm.KNum
	}
	return Shape{
		Occ:      op.Occ.Meet(xdm.Optional),
		Atomic:   out,
		NodeFree: true,
		// Negating MinInt64 raises FOAR0002.
		Total: op.Total && op.bounded() && k.Sub(xdm.KNum|xdm.KUntyped) && !(n.Minus && k&xdm.KInt != 0),
	}
}

func minusName(minus bool) string {
	if minus {
		return "minus"
	}
	return "plus"
}

// famCount counts the comparison families — numeric, string, boolean —
// present in an atom set (untyped must be stripped by the caller).
func famCount(a xdm.Kinds) int {
	n := 0
	if a&xdm.KNum != 0 {
		n++
	}
	if a&xdm.KStr != 0 {
		n++
	}
	if a&xdm.KBool != 0 {
		n++
	}
	return n
}

// compareSafe reports that xdm.CompareValue over any pair drawn from the
// two atomized kind sets cannot raise: untyped coerces to anything, and
// otherwise every pair must land in one family.
func compareSafe(kl, kr xdm.Kinds) bool {
	l, r := kl&^xdm.KUntyped, kr&^xdm.KUntyped
	return l == 0 || r == 0 || famCount(l|r) <= 1
}

// compareDoomed reports that EVERY pair must raise XPTY0004: no untyped
// coercion possible and the families on the two sides are disjoint.
func compareDoomed(l, r Shape) bool {
	if !l.NodeFree || !r.NodeFree {
		return false
	}
	kl, kr := l.Atomic, r.Atomic
	if kl == 0 || kr == 0 || kl&xdm.KUntyped != 0 || kr&xdm.KUntyped != 0 {
		return false
	}
	famL := xdm.Kinds(0)
	if kl&xdm.KNum != 0 {
		famL |= xdm.KNum
	}
	if kl&xdm.KStr != 0 {
		famL |= xdm.KStr
	}
	if kl&xdm.KBool != 0 {
		famL |= xdm.KBool
	}
	famR := xdm.Kinds(0)
	if kr&xdm.KNum != 0 {
		famR |= xdm.KNum
	}
	if kr&xdm.KStr != 0 {
		famR |= xdm.KStr
	}
	if kr&xdm.KBool != 0 {
		famR |= xdm.KBool
	}
	return famL&famR == 0
}

// pairOcc bounds the result of an operator over two atomized singleton
// operands: one item, or none when either operand is empty.
func pairOcc(l, r Shape) xdm.Occurrence {
	return l.Occ.Meet(xdm.Optional).Product(r.Occ.Meet(xdm.Optional))
}

func arithAtom(op xdm.ArithOp, kl, kr xdm.Kinds) xdm.Kinds {
	if op == xdm.OpIDiv {
		return xdm.KInt
	}
	var out xdm.Kinds
	if (kl|kr)&(xdm.KDbl|xdm.KUntyped) != 0 {
		out |= xdm.KDbl
	}
	l, r := kl&(xdm.KInt|xdm.KDec), kr&(xdm.KInt|xdm.KDec)
	if l&xdm.KInt != 0 && r&xdm.KInt != 0 {
		if op == xdm.OpDiv {
			out |= xdm.KDec
		} else {
			out |= xdm.KInt
		}
	}
	if (l&xdm.KDec != 0 && r != 0) || (r&xdm.KDec != 0 && l != 0) {
		out |= xdm.KDec
	}
	if out == 0 {
		out = xdm.KNum
	}
	return out
}

func (a *analyzer) inferBinary(n *ast.Binary, must bool) Shape {
	switch n.Kind {
	case ast.OpOr, ast.OpAnd:
		l := a.infer(n.L, must)
		r := a.infer(n.R, false) // short-circuit: R is conditional
		return Shape{Occ: xdm.One, Atomic: xdm.KBool, NodeFree: true,
			Total: l.Total && l.ebvSafe() && r.Total && r.ebvSafe()}
	}
	l := a.infer(n.L, must)
	r := a.infer(n.R, must)
	kl, kr := l.atomizedKind(), r.atomizedKind()
	switch n.Kind {
	case ast.OpGeneralComp:
		if l.Total && r.Total && l.Occ.Lo() >= 1 && r.Occ.Lo() >= 1 && compareDoomed(l, r) {
			a.diag(must, "XPTY0004", n.P, "comparison %s between %s and %s values", n.Cmp, l.Atomic, r.Atomic)
		}
		return Shape{Occ: xdm.One, Atomic: xdm.KBool, NodeFree: true,
			Total: l.Total && r.Total && compareSafe(kl, kr)}
	case ast.OpValueComp:
		if l.Total && r.Total && l.Occ.Lo() >= 1 && r.Occ.Lo() >= 1 && compareDoomed(l, r) {
			// A one-item pair raises from the comparison, a longer operand
			// from its cardinality check — XPTY0004 either way.
			a.diag(must, "XPTY0004", n.P, "value comparison %s between %s and %s values", n.Cmp, l.Atomic, r.Atomic)
		}
		return Shape{
			Occ:      pairOcc(l, r),
			Atomic:   xdm.KBool,
			NodeFree: true,
			Total:    l.Total && r.Total && l.bounded() && r.bounded() && compareSafe(kl, kr),
		}
	case ast.OpNodeIs, ast.OpNodeBefore, ast.OpNodeAfter:
		return Shape{
			Occ:      pairOcc(l, r),
			Atomic:   xdm.KBool,
			NodeFree: true,
			Total: l.Total && r.Total && l.bounded() && r.bounded() &&
				l.Atomic == xdm.KNone && r.Atomic == xdm.KNone,
		}
	case ast.OpArith:
		doomedL := l.NodeFree && l.Atomic != xdm.KNone && l.Atomic.Sub(xdm.KStr|xdm.KBool)
		doomedR := r.NodeFree && r.Atomic != xdm.KNone && r.Atomic.Sub(xdm.KStr|xdm.KBool)
		if l.Total && r.Total && l.Occ.Lo() >= 1 && r.Occ.Lo() >= 1 && (doomedL || doomedR) {
			a.diag(must, "XPTY0004", n.P, "arithmetic operator %s on a non-numeric operand", n.Arith)
		}
		numSafe := kl.Sub(xdm.KNum|xdm.KUntyped) && kr.Sub(xdm.KNum|xdm.KUntyped)
		// Off the double path, integers and decimals may overflow
		// (FOAR0002) and divide by zero (FOAR0001); an operand that always
		// promotes to double (doubles and untypeds) takes the operation onto
		// it. idiv raises on doubles too.
		opSafe := kl == 0 || kr == 0 ||
			n.Arith != xdm.OpIDiv && (kl.Sub(xdm.KDbl|xdm.KUntyped) || kr.Sub(xdm.KDbl|xdm.KUntyped))
		return Shape{
			Occ:      pairOcc(l, r),
			Atomic:   arithAtom(n.Arith, kl, kr),
			NodeFree: true,
			Total:    l.Total && r.Total && l.bounded() && r.bounded() && numSafe && opSafe,
		}
	case ast.OpUnion:
		return Shape{
			Occ:   l.Occ.Concat(r.Occ),
			Total: l.Total && r.Total && l.allNodes() && r.allNodes(),
		}
	case ast.OpIntersect:
		return Shape{
			Occ:   l.Occ.Meet(r.Occ).Join(xdm.Zero),
			Total: l.Total && r.Total && l.allNodes() && r.allNodes(),
		}
	case ast.OpExcept:
		return Shape{
			Occ:   l.Occ.Join(xdm.Zero),
			Total: l.Total && r.Total && l.allNodes() && r.allNodes(),
		}
	}
	// OpConcat (||) is parsed but unsupported: XQST0031 after the operands.
	return unknown
}

func (a *analyzer) inferFLWOR(n *ast.FLWOR, must bool) Shape {
	clauseMust := must
	mult := xdm.One
	total := true
	pushed := 0
	for _, cl := range n.Clauses {
		switch c := cl.(type) {
		case ast.ForClause:
			in := a.infer(c.In, clauseMust)
			frame := map[string]Shape{
				c.Var: {Occ: xdm.One, Atomic: in.Atomic, NodeFree: in.NodeFree, Total: true},
			}
			if c.PosVar != "" {
				frame[c.PosVar] = one(xdm.KInt)
			}
			a.push(frame)
			pushed++
			mult = mult.Product(in.Occ)
			total = total && in.Total
			if in.Occ.Lo() == 0 {
				// An empty range skips every later clause.
				clauseMust = false
			}
		case ast.LetClause:
			v := a.infer(c.Val, clauseMust)
			bound := v
			bound.Total = true
			a.push(map[string]Shape{c.Var: bound})
			pushed++
			total = total && v.Total
		}
	}
	if n.Where != nil {
		w := a.infer(n.Where, false)
		total = total && w.Total && w.ebvSafe()
	}
	for _, spec := range n.OrderBy {
		a.infer(spec.Key, false)
	}
	if len(n.OrderBy) > 0 {
		// Order keys are compared pairwise across rows; mixed-type or
		// multi-item keys raise, which per-key shapes cannot rule out.
		total = false
	}
	ret := a.infer(n.Return, false)
	for ; pushed > 0; pushed-- {
		a.pop()
	}
	occ := mult.Product(ret.Occ)
	if n.Where != nil {
		occ = occ.Join(xdm.Zero)
	}
	return Shape{Occ: occ, Atomic: ret.Atomic, NodeFree: ret.NodeFree, Total: total && ret.Total}
}

func (a *analyzer) inferQuantified(n *ast.Quantified, must bool) Shape {
	clauseMust := must
	total := true
	for _, v := range n.Vars {
		in := a.infer(v.In, clauseMust)
		a.push(map[string]Shape{
			v.Var: {Occ: xdm.One, Atomic: in.Atomic, NodeFree: in.NodeFree, Total: true},
		})
		total = total && in.Total
		if in.Occ.Lo() == 0 {
			clauseMust = false
		}
	}
	sat := a.infer(n.Satisfy, false)
	for range n.Vars {
		a.pop()
	}
	return Shape{Occ: xdm.One, Atomic: xdm.KBool, NodeFree: true,
		Total: total && sat.Total && sat.ebvSafe()}
}

func (a *analyzer) inferTypeswitch(n *ast.Typeswitch, must bool) Shape {
	op := a.infer(n.Operand, must)
	var out Shape
	first := true
	join := func(s Shape) {
		if first {
			out, first = s, false
		} else {
			out = Join(out, s)
		}
	}
	for _, cs := range n.Cases {
		frame := map[string]Shape{}
		if cs.Var != "" {
			bound := meet(op, shapeFromSeqType(cs.Type))
			bound.Total = true
			frame[cs.Var] = bound
		}
		a.push(frame)
		join(a.infer(cs.Ret, false))
		a.pop()
	}
	frame := map[string]Shape{}
	if n.DefaultVar != "" {
		bound := op
		bound.Total = true
		frame[n.DefaultVar] = bound
	}
	a.push(frame)
	join(a.infer(n.Default, false))
	a.pop()
	out.Total = out.Total && op.Total
	return out
}

func (a *analyzer) inferPath(n *ast.PathExpr, must bool) Shape {
	// A lone unrooted filter step is a standalone filter expression: the
	// primary's value, narrowed by predicates.
	if n.Root == ast.RootNone && len(n.Steps) == 1 && n.Steps[0].Primary != nil {
		st := n.Steps[0]
		p := a.infer(st.Primary, must)
		for _, pr := range st.Preds {
			a.infer(pr, false)
		}
		if len(st.Preds) == 0 {
			return p
		}
		return Shape{Occ: p.Occ.Join(xdm.Zero), Atomic: p.Atomic, NodeFree: p.NodeFree}
	}
	empty := false
	leaf := false // the previous step can only yield childless, attribute-less nodes
	for _, st := range n.Steps {
		if st.Primary != nil {
			a.infer(st.Primary, false)
			leaf = false
		} else {
			if leaf && (st.Axis == ast.AxisChild || st.Axis == ast.AxisDescendant || st.Axis == ast.AxisAttribute) && !empty {
				a.warn("XPST0005", st.P, "step %s::%s is statically empty: the previous step yields only leaf nodes", st.Axis, testName(st.Test))
				empty = true
			}
			leaf = st.Axis == ast.AxisAttribute || (st.Test.Kind != nil && leafKind(st.Test.Kind.Kind))
		}
		for _, pr := range st.Preds {
			a.infer(pr, false)
		}
	}
	if empty {
		// Statically (): earlier steps can still raise (non-node context),
		// so the bound is empty-on-success, never total.
		return Shape{Occ: xdm.Zero, NodeFree: true}
	}
	if len(n.Steps) == 0 {
		// A lone "/": the context root — one node when the focus is a tree.
		return Shape{Occ: xdm.One}
	}
	if last := n.Steps[len(n.Steps)-1]; last.Primary != nil {
		if p, ok := a.info.Of(last.Primary); ok {
			return Shape{Occ: xdm.ZeroOrMore, Atomic: p.Atomic, NodeFree: p.NodeFree}
		}
	}
	return Shape{Occ: xdm.ZeroOrMore}
}

func leafKind(k xdm.ItemTestKind) bool {
	switch k {
	case xdm.TestText, xdm.TestComment, xdm.TestPI:
		return true
	}
	return false
}

func testName(t ast.NodeTest) string {
	if t.Kind != nil {
		return t.Kind.String()
	}
	return t.Name
}

func (a *analyzer) inferCall(n *ast.FunctionCall, must bool) Shape {
	argShapes := make([]Shape, len(n.Args))
	for i, arg := range n.Args {
		argShapes[i] = a.infer(arg, must)
	}
	// Resolution mirrors interp.compileCall: user functions by exact
	// name+arity first; a user name at the wrong arity falls through to the
	// built-in table.
	if f, ok := a.funcs[funcKey(n.Name, len(n.Args))]; ok {
		// The runtime enforces the declared return type (XPTY0004 on
		// mismatch), so the declaration is a sound success-shape bound.
		sh := shapeFromSeqType(f.Ret)
		sh.Total = false
		return sh
	}
	if a.sc.IsUserFunc != nil && a.sc.IsUserFunc(n.Name) {
		// Probe mode knows user names but not arities: assume nothing.
		return Shape{Occ: xdm.ZeroOrMore, Atomic: xdm.KAny}
	}
	f, ok := funclib.Lookup(n.Name, len(n.Args))
	if !ok {
		return Shape{Occ: xdm.ZeroOrMore, Atomic: xdm.KAny} // XPST0017 at call time
	}
	return builtinShape(f, argShapes)
}

// builtinShape is the one transfer function over a built-in's row: the row's
// own bounds for a function that computes its result, the flow arguments'
// shapes clamped by them for one whose result is made of its arguments.
func builtinShape(f *funclib.Func, args []Shape) Shape {
	out := Shape{Occ: f.Occ, Atomic: f.Kinds, NodeFree: f.NodeFree, Total: f.Total || f.TotalIfBounded}
	in := emptyShape(true) // what flows
	for i, arg := range args {
		out.Total = out.Total && arg.Total
		if f.Flows(i, len(args)) {
			in = Concat(in, arg)
		} else if !f.Total {
			out.Total = out.Total && arg.bounded()
		}
	}
	if len(f.Flow) == 0 {
		return out
	}
	// The count is clamped to the row's (a count that does not fit raises),
	// the items are the arguments' own — atomized by a node-free row.
	out.Occ = in.Occ.Meet(f.Occ)
	if f.Partial {
		out.Occ = out.Occ.Join(xdm.Zero)
	}
	out.Atomic, out.NodeFree = in.Atomic, in.NodeFree
	if f.NodeFree {
		out.Atomic, out.NodeFree = in.atomizedKind()&f.Kinds, true
	}
	out.Total = out.Total && in.Occ.Sub(f.Occ)
	return out
}

func (a *analyzer) inferCast(n *ast.CastAs, must bool) Shape {
	op := a.infer(n.Operand, must)
	if !n.Optional && op.Total && op.Occ == xdm.Zero {
		a.diag(must, "XPTY0004", n.P, "cast of empty sequence to non-optional %s", n.TypeName)
	}
	occ := xdm.One
	if n.Optional {
		occ = op.Occ.Meet(xdm.Optional)
	}
	// The cast cannot fail for a source item of a SafeFrom kind; a statically
	// empty operand never reaches it.
	t, _ := xdm.TypeNamed(n.TypeName)
	total := op.Total && op.bounded() && op.atomizedKind().Sub(t.SafeFrom) &&
		(n.Optional || op.Occ.Lo() >= 1)
	return Shape{Occ: occ, Atomic: t.Yields, NodeFree: true, Total: total}
}

func (a *analyzer) inferDirElem(n *ast.DirElem, must bool) Shape {
	total := true
	for _, attr := range n.Attrs {
		for _, part := range attr.Parts {
			p := a.infer(part, must)
			total = total && p.Total
		}
	}
	for _, c := range n.Content {
		cs := a.infer(c, must)
		// Non-node-free content can hold attribute nodes, whose placement
		// after content raises XQTY0024 at construction time.
		total = total && cs.Total && cs.NodeFree
	}
	return Shape{Occ: xdm.One, Total: total}
}

// ---- update statements ----

func (a *analyzer) inferStmt(st ast.UpdateStmt) {
	switch s := st.(type) {
	case *ast.InsertStmt:
		a.infer(s.Source, false)
		a.infer(s.Target, false)
	case *ast.DeleteStmt:
		a.infer(s.Target, false)
	case *ast.ReplaceStmt:
		a.infer(s.Target, false)
		a.infer(s.Source, false)
	case *ast.RenameStmt:
		a.infer(s.Target, false)
		a.infer(s.Name, false)
	case *ast.ForStmt:
		in := a.infer(s.In, false)
		a.push(map[string]Shape{
			s.Var: {Occ: xdm.One, Atomic: in.Atomic, NodeFree: in.NodeFree, Total: true},
		})
		if s.Where != nil {
			a.infer(s.Where, false)
		}
		for _, b := range s.Body {
			a.inferStmt(b)
		}
		a.pop()
	case *ast.BlockStmt:
		for _, b := range s.Stmts {
			a.inferStmt(b)
		}
	}
}

// ---- sequence types ----

// shapeFromSeqType bounds the values matching a declared sequence type.
// Sound because the runtime enforces declarations (parameter and return
// checks): a value that flowed past the check matches the type.
func shapeFromSeqType(t xdm.SequenceType) Shape {
	item := Shape{Occ: t.Occurrence} // node tests
	switch t.Kind {
	case xdm.TestAnyItem:
		item.Atomic = xdm.KAny
	case xdm.TestAtomic:
		item.Atomic, item.NodeFree = t.Type.Matches, true
	case xdm.TestEmptySequence:
		return emptyShape(false)
	}
	return item.norm()
}

// meet intersects two upper bounds (used when a value is known to satisfy
// both, e.g. a typeswitch case binding).
func meet(a, b Shape) Shape {
	// Jointly unsatisfiable occurrences meet in Zero: the value cannot exist,
	// so any bound is vacuous, and empty keeps downstream math sane.
	return Shape{
		Occ:      a.Occ.Meet(b.Occ),
		Atomic:   a.Atomic & b.Atomic,
		NodeFree: a.NodeFree || b.NodeFree,
		Total:    a.Total && b.Total,
	}.norm()
}

// Subsumes reports that EVERY value admitted by the shape matches the
// sequence type, so a runtime Matches check against it must pass.
func Subsumes(s Shape, t xdm.SequenceType) bool {
	if t.Kind == xdm.TestEmptySequence {
		return s.Occ == xdm.Zero
	}
	if !s.Occ.Sub(t.Occurrence) {
		return false
	}
	switch t.Kind {
	case xdm.TestAnyItem:
		return true
	case xdm.TestAtomic:
		sure := t.Type.Matches // the kinds every value of which matches
		if t.Type.Restricted {
			sure = xdm.KNone
		}
		return s.NodeFree && s.Atomic.Sub(sure)
	case xdm.TestAnyNode:
		return s.Atomic == xdm.KNone
	}
	return false
}
