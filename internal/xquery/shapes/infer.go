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
	"strings"

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
// (TotalExpr/InferExpr), where the caller — the optimizer — knows the
// lexical environment but no prolog is at hand.
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
// serve EXPLAIN and check elision only.
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

// TotalExpr reports whether an expression provably cannot raise a non-limit
// error, resolving free variables and function names through sc. This is
// the optimizer's eliminability probe.
func TotalExpr(e ast.Expr, sc Scope) bool {
	a := newAnalyzer()
	a.sc = sc
	return a.infer(e, false).Total
}

// InferExpr infers a shape for a standalone expression with sc resolving
// free names; used by the access-path planner to vet predicates.
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
			a.globals[v.Name] = Shape{Occ: OccStar, Atomic: AAny, Total: true}
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
		return Shape{Occ: OccStar, Atomic: AAny, Total: true}
	}
	return Shape{Occ: OccStar, Atomic: AAny}
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
		return one(AStr)
	case *ast.IntLit:
		return one(AInt)
	case *ast.DecimalLit:
		return one(ADec)
	case *ast.DoubleLit:
		return one(ADbl)
	case *ast.VarRef:
		return a.lookupVar(n.Name)
	case *ast.ContextItem:
		// One item when a focus exists; XPDY0002 when not — total only when
		// the caller vouches for the focus.
		return Shape{Occ: OccOne, Atomic: AAny, Total: a.sc.HasFocus}
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
		return Shape{Occ: OccOne, Atomic: ABool, NodeFree: true, Total: op.Total}
	case *ast.CastableAs:
		// Cast failures — including the cardinality check — turn into
		// `false`, so castable is total whenever its operand is.
		op := a.infer(n.Operand, must)
		return Shape{Occ: OccOne, Atomic: ABool, NodeFree: true, Total: op.Total}
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
			frame[n.CatchVar] = one(AStr)
		}
		if n.CatchCodeVar != "" {
			frame[n.CatchCodeVar] = one(AStr)
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
		return Shape{Occ: OccOne, Total: true}
	case *ast.CompElem:
		total := n.NameExpr == nil
		if n.Content != nil {
			c := a.infer(n.Content, must)
			total = total && c.Total && c.NodeFree
		}
		return Shape{Occ: OccOne, Total: total}
	case *ast.CompAttr:
		total := n.NameExpr == nil
		if n.NameExpr != nil {
			a.infer(n.NameExpr, must)
		}
		if n.Content != nil {
			c := a.infer(n.Content, must)
			total = total && c.Total
		}
		return Shape{Occ: OccOne, Total: total}
	case *ast.CompText:
		c := a.infer(n.Content, must)
		// No text node materializes for empty content.
		lo := 0
		if c.Occ.Lo() >= 1 {
			lo = 1
		}
		return Shape{Occ: occFromBounds(lo, 1), Total: c.Total}
	case *ast.CompComment:
		a.infer(n.Content, must)
		return Shape{Occ: occFromBounds(0, 1)}
	case *ast.CompPI:
		if n.Content != nil {
			a.infer(n.Content, must)
		}
		return Shape{Occ: occFromBounds(0, 1)}
	case *ast.CompDoc:
		if n.Content != nil {
			a.infer(n.Content, must)
		}
		return Shape{Occ: OccOne}
	}
	return Unknown
}

func (a *analyzer) inferRange(n *ast.RangeExpr, must bool) Shape {
	a.infer(n.Lo, must)
	a.infer(n.Hi, must)
	if lo, ok := n.Lo.(*ast.IntLit); ok {
		if hi, ok2 := n.Hi.(*ast.IntLit); ok2 {
			switch {
			case lo.Value > hi.Value:
				return emptyShape(true)
			case hi.Value-lo.Value > 50_000_000:
				// FOAR0002 at runtime; bounds are vacuous.
				return Shape{Occ: OccStar, Atomic: AInt, NodeFree: true}
			case lo.Value == hi.Value:
				return one(AInt)
			default:
				return Shape{Occ: OccPlus, Atomic: AInt, NodeFree: true, Total: true}
			}
		}
	}
	// Non-literal bounds: the integer casts and the width guard can raise.
	return Shape{Occ: OccStar, Atomic: AInt, NodeFree: true}
}

func (a *analyzer) inferUnary(n *ast.Unary, must bool) Shape {
	op := a.infer(n.Operand, must)
	k := op.atomizedKind()
	if op.Total && op.Occ.Lo() >= 1 && op.NodeFree && op.Atomic != ANone && op.Atomic.Sub(AStr|ABool) {
		// A non-empty node-free string/boolean operand: a singleton raises
		// XPTY0004 from the operator, more than one from the cardinality
		// check — the same code either way.
		a.diag(must, "XPTY0004", n.P, "unary %s on a non-numeric operand", minusName(n.Minus))
	}
	out := Atom(0)
	if k&AInt != 0 {
		out |= AInt
	}
	if k&ADec != 0 {
		out |= ADec
	}
	if k&(ADbl|AUntyped) != 0 {
		out |= ADbl
	}
	if out == 0 {
		out = ANum
	}
	return Shape{
		Occ:      occFromBounds(min(op.Occ.Lo(), 1), min(op.Occ.Hi(), 1)),
		Atomic:   out,
		NodeFree: true,
		Total:    op.Total && op.bounded() && k.Sub(ANum|AUntyped),
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
func famCount(a Atom) int {
	n := 0
	if a&ANum != 0 {
		n++
	}
	if a&AStr != 0 {
		n++
	}
	if a&ABool != 0 {
		n++
	}
	return n
}

// compareSafe reports that xdm.CompareValue over any pair drawn from the
// two atomized kind sets cannot raise: untyped coerces to anything, and
// otherwise every pair must land in one family.
func compareSafe(kl, kr Atom) bool {
	l, r := kl&^AUntyped, kr&^AUntyped
	return l == 0 || r == 0 || famCount(l|r) <= 1
}

// compareDoomed reports that EVERY pair must raise XPTY0004: no untyped
// coercion possible and the families on the two sides are disjoint.
func compareDoomed(l, r Shape) bool {
	if !l.NodeFree || !r.NodeFree {
		return false
	}
	kl, kr := l.Atomic, r.Atomic
	if kl == 0 || kr == 0 || kl&AUntyped != 0 || kr&AUntyped != 0 {
		return false
	}
	famL := Atom(0)
	if kl&ANum != 0 {
		famL |= ANum
	}
	if kl&AStr != 0 {
		famL |= AStr
	}
	if kl&ABool != 0 {
		famL |= ABool
	}
	famR := Atom(0)
	if kr&ANum != 0 {
		famR |= ANum
	}
	if kr&AStr != 0 {
		famR |= AStr
	}
	if kr&ABool != 0 {
		famR |= ABool
	}
	return famL&famR == 0
}

func arithAtom(op xdm.ArithOp, kl, kr Atom) Atom {
	if op == xdm.OpIDiv {
		return AInt
	}
	var out Atom
	if (kl|kr)&(ADbl|AUntyped) != 0 {
		out |= ADbl
	}
	l, r := kl&(AInt|ADec), kr&(AInt|ADec)
	if l&AInt != 0 && r&AInt != 0 {
		if op == xdm.OpDiv {
			out |= ADec
		} else {
			out |= AInt
		}
	}
	if (l&ADec != 0 && r != 0) || (r&ADec != 0 && l != 0) {
		out |= ADec
	}
	if out == 0 {
		out = ANum
	}
	return out
}

func (a *analyzer) inferBinary(n *ast.Binary, must bool) Shape {
	switch n.Kind {
	case ast.OpOr, ast.OpAnd:
		l := a.infer(n.L, must)
		r := a.infer(n.R, false) // short-circuit: R is conditional
		return Shape{Occ: OccOne, Atomic: ABool, NodeFree: true,
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
		return Shape{Occ: OccOne, Atomic: ABool, NodeFree: true,
			Total: l.Total && r.Total && compareSafe(kl, kr)}
	case ast.OpValueComp:
		if l.Total && r.Total && l.Occ.Lo() >= 1 && r.Occ.Lo() >= 1 && compareDoomed(l, r) {
			// A one-item pair raises from the comparison, a longer operand
			// from its cardinality check — XPTY0004 either way.
			a.diag(must, "XPTY0004", n.P, "value comparison %s between %s and %s values", n.Cmp, l.Atomic, r.Atomic)
		}
		return Shape{
			Occ:      occFromBounds(min(l.Occ.Lo(), r.Occ.Lo()), min(min(l.Occ.Hi(), r.Occ.Hi()), 1)),
			Atomic:   ABool,
			NodeFree: true,
			Total:    l.Total && r.Total && l.bounded() && r.bounded() && compareSafe(kl, kr),
		}
	case ast.OpNodeIs, ast.OpNodeBefore, ast.OpNodeAfter:
		return Shape{
			Occ:      occFromBounds(l.Occ.Lo()*r.Occ.Lo(), min(min(l.Occ.Hi(), r.Occ.Hi()), 1)),
			Atomic:   ABool,
			NodeFree: true,
			Total: l.Total && r.Total && l.bounded() && r.bounded() &&
				l.Atomic == ANone && r.Atomic == ANone,
		}
	case ast.OpArith:
		doomedL := l.NodeFree && l.Atomic != ANone && l.Atomic.Sub(AStr|ABool)
		doomedR := r.NodeFree && r.Atomic != ANone && r.Atomic.Sub(AStr|ABool)
		if l.Total && r.Total && l.Occ.Lo() >= 1 && r.Occ.Lo() >= 1 && (doomedL || doomedR) {
			a.diag(must, "XPTY0004", n.P, "arithmetic operator %s on a non-numeric operand", n.Arith)
		}
		numSafe := kl.Sub(ANum|AUntyped) && kr.Sub(ANum|AUntyped)
		divSafe := true
		switch n.Arith {
		case xdm.OpDiv, xdm.OpMod:
			// Division by zero raises only off the double path; an operand
			// that always promotes to double (doubles and untypeds) is safe.
			divSafe = kl == 0 || kr == 0 || kl.Sub(ADbl|AUntyped) || kr.Sub(ADbl|AUntyped)
		case xdm.OpIDiv:
			divSafe = kl == 0 || kr == 0 // only vacuously safe
		}
		return Shape{
			Occ:      occFromBounds(l.Occ.Lo()*r.Occ.Lo(), min(min(l.Occ.Hi(), r.Occ.Hi()), 1)),
			Atomic:   arithAtom(n.Arith, kl, kr),
			NodeFree: true,
			Total:    l.Total && r.Total && l.bounded() && r.bounded() && numSafe && divSafe,
		}
	case ast.OpUnion:
		return Shape{
			Occ:   occFromBounds(max(l.Occ.Lo(), r.Occ.Lo()), min(l.Occ.Hi()+r.Occ.Hi(), 2)),
			Total: l.Total && r.Total && l.allNodes() && r.allNodes(),
		}
	case ast.OpIntersect:
		return Shape{
			Occ:   occFromBounds(0, min(l.Occ.Hi(), r.Occ.Hi())),
			Total: l.Total && r.Total && l.allNodes() && r.allNodes(),
		}
	case ast.OpExcept:
		return Shape{
			Occ:   occFromBounds(0, l.Occ.Hi()),
			Total: l.Total && r.Total && l.allNodes() && r.allNodes(),
		}
	}
	// OpConcat (||) is parsed but unsupported: XQST0031 after the operands.
	return Unknown
}

func (a *analyzer) inferFLWOR(n *ast.FLWOR, must bool) Shape {
	clauseMust := must
	mult := OccOne
	total := true
	pushed := 0
	for _, cl := range n.Clauses {
		switch c := cl.(type) {
		case ast.ForClause:
			in := a.infer(c.In, clauseMust)
			frame := map[string]Shape{
				c.Var: {Occ: OccOne, Atomic: in.Atomic, NodeFree: in.NodeFree, Total: true},
			}
			if c.PosVar != "" {
				frame[c.PosVar] = one(AInt)
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
		occ = occFromBounds(0, occ.Hi())
	}
	return Shape{Occ: occ, Atomic: ret.Atomic, NodeFree: ret.NodeFree, Total: total && ret.Total}
}

func (a *analyzer) inferQuantified(n *ast.Quantified, must bool) Shape {
	clauseMust := must
	total := true
	for _, v := range n.Vars {
		in := a.infer(v.In, clauseMust)
		a.push(map[string]Shape{
			v.Var: {Occ: OccOne, Atomic: in.Atomic, NodeFree: in.NodeFree, Total: true},
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
	return Shape{Occ: OccOne, Atomic: ABool, NodeFree: true,
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
		return Shape{Occ: occFromBounds(0, p.Occ.Hi()), Atomic: p.Atomic, NodeFree: p.NodeFree}
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
		return Shape{Occ: OccEmpty, NodeFree: true}
	}
	if len(n.Steps) == 0 {
		// A lone "/": the context root — one node when the focus is a tree.
		return Shape{Occ: OccOne}
	}
	if last := n.Steps[len(n.Steps)-1]; last.Primary != nil {
		if p, ok := a.info.Of(last.Primary); ok {
			return Shape{Occ: OccStar, Atomic: p.Atomic, NodeFree: p.NodeFree}
		}
	}
	return Shape{Occ: OccStar}
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
		return Shape{Occ: OccStar, Atomic: AAny}
	}
	sig, ok := funclib.Signature(n.Name, len(n.Args))
	if !ok {
		return Shape{Occ: OccStar, Atomic: AAny} // XPST0017 at call time
	}
	argsTotal := true
	argsBounded := true
	for _, s := range argShapes {
		argsTotal = argsTotal && s.Total
		argsBounded = argsBounded && s.bounded()
	}
	// Built-ins whose result mirrors an argument.
	switch strings.TrimPrefix(n.Name, "fn:") {
	case "data":
		if len(argShapes) == 1 {
			a0 := argShapes[0]
			return Shape{Occ: a0.Occ, Atomic: a0.atomizedKind(), NodeFree: true, Total: a0.Total}
		}
	case "reverse":
		if len(argShapes) == 1 {
			return argShapes[0]
		}
	case "zero-or-one":
		if len(argShapes) == 1 {
			a0 := argShapes[0]
			return Shape{Occ: occFromBounds(min(a0.Occ.Lo(), 1), min(a0.Occ.Hi(), 1)),
				Atomic: a0.Atomic, NodeFree: a0.NodeFree, Total: a0.Total && a0.bounded()}
		}
	case "one-or-more":
		if len(argShapes) == 1 {
			a0 := argShapes[0]
			return Shape{Occ: occFromBounds(max(a0.Occ.Lo(), 1), a0.Occ.Hi()),
				Atomic: a0.Atomic, NodeFree: a0.NodeFree, Total: a0.Total && a0.Occ.Lo() >= 1}
		}
	case "exactly-one":
		if len(argShapes) == 1 {
			a0 := argShapes[0]
			return Shape{Occ: OccOne, Atomic: a0.Atomic, NodeFree: a0.NodeFree,
				Total: a0.Total && a0.Occ == OccOne}
		}
	case "subsequence":
		if len(argShapes) >= 2 {
			a0 := argShapes[0]
			numsBounded := true
			for _, s := range argShapes[1:] {
				numsBounded = numsBounded && s.bounded()
			}
			return Shape{Occ: occFromBounds(0, a0.Occ.Hi()), Atomic: a0.Atomic,
				NodeFree: a0.NodeFree, Total: argsTotal && numsBounded}
		}
	case "trace":
		// Returns its last argument (the Galax behavior); formatting the
		// traced values cannot raise.
		if len(argShapes) >= 1 {
			last := argShapes[len(argShapes)-1]
			last.Total = argsTotal
			return last
		}
	}
	total := sig.Total || (sig.TotalIfBounded && argsBounded)
	return Shape{
		Occ:      occFromSig(sig.Occ),
		Atomic:   atomFromName(sig.Atomic),
		NodeFree: sig.NodeFree,
		Total:    total && argsTotal,
	}
}

func (a *analyzer) inferCast(n *ast.CastAs, must bool) Shape {
	op := a.infer(n.Operand, must)
	if !n.Optional && op.Total && op.Occ == OccEmpty {
		a.diag(must, "XPTY0004", n.P, "cast of empty sequence to non-optional %s", n.TypeName)
	}
	occ := OccOne
	if n.Optional {
		occ = occFromBounds(min(op.Occ.Lo(), 1), min(max(op.Occ.Hi(), 1), 1))
		if op.Occ == OccEmpty {
			occ = OccEmpty
		}
	}
	total := op.Total && op.bounded() && castSafe(n.TypeName, op.atomizedKind()) &&
		(n.Optional || op.Occ.Lo() >= 1)
	return Shape{Occ: occ, Atomic: atomFromTypeName(n.TypeName), NodeFree: true, Total: total}
}

// castSafe reports xdm.CastTo cannot fail for any source item drawn from
// the atomized kind set. kinds==0 means the operand is statically empty and
// the cast body never runs.
func castSafe(typeName string, kinds Atom) bool {
	if kinds == 0 {
		return true
	}
	switch typeName {
	case "xs:string", "xs:untypedAtomic", "xdt:untypedAtomic":
		return true
	case "xs:boolean":
		return kinds.Sub(ANum | ABool)
	case "xs:integer", "xs:int", "xs:long":
		return kinds.Sub(AInt | ADec | ABool)
	case "xs:decimal":
		return kinds.Sub(AInt | ADec)
	case "xs:double", "xs:float":
		return kinds.Sub(ANum)
	}
	return false
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
	return Shape{Occ: OccOne, Total: total}
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
			s.Var: {Occ: OccOne, Atomic: in.Atomic, NodeFree: in.NodeFree, Total: true},
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
	var item Shape
	switch t.Kind {
	case xdm.TestAnyItem:
		item = Shape{Atomic: AAny}
	case xdm.TestAtomic:
		item = Shape{Atomic: atomsMatching(t.TypeName), NodeFree: true}
	case xdm.TestEmptySequence:
		return emptyShape(false)
	default:
		item = Shape{Atomic: ANone} // node tests
	}
	item.Occ = occFromXdm(t.Occurrence)
	return item.norm()
}

func occFromXdm(o xdm.Occurrence) Occ {
	switch o {
	case xdm.One:
		return OccOne
	case xdm.Optional:
		return OccOpt
	case xdm.OneOrMore:
		return OccPlus
	}
	return OccStar
}

func occFromSig(o funclib.SigOcc) Occ {
	switch o {
	case funclib.SigOccEmpty:
		return OccEmpty
	case funclib.SigOccOne:
		return OccOne
	case funclib.SigOccOpt:
		return OccOpt
	case funclib.SigOccPlus:
		return OccPlus
	}
	return OccStar
}

// atomsMatching over-approximates the atomic values matching a named
// atomic type (the shape of a value that PASSED the test).
func atomsMatching(typeName string) Atom {
	switch typeName {
	case "xs:anyAtomicType", "xdt:anyAtomicType":
		return AAny
	case "xs:string":
		return AStr
	case "xs:boolean":
		return ABool
	case "xs:integer", "xs:int", "xs:long", "xs:nonNegativeInteger", "xs:positiveInteger":
		return AInt
	case "xs:decimal":
		return AInt | ADec
	case "xs:double", "xs:float":
		return ADbl
	case "xs:numeric":
		return ANum
	case "xs:untypedAtomic", "xdt:untypedAtomic":
		return AUntyped
	}
	return AAny
}

// atomsSubsumedBy under-approximates: the kinds every value of which is
// GUARANTEED to match the named atomic type.
func atomsSubsumedBy(typeName string) Atom {
	switch typeName {
	case "xs:anyAtomicType", "xdt:anyAtomicType":
		return AAny
	case "xs:string":
		return AStr
	case "xs:boolean":
		return ABool
	case "xs:integer", "xs:int", "xs:long":
		return AInt
	case "xs:decimal":
		return AInt | ADec
	case "xs:double", "xs:float":
		return ADbl
	case "xs:numeric":
		return ANum
	case "xs:untypedAtomic", "xdt:untypedAtomic":
		return AUntyped
	}
	return ANone
}

// atomFromTypeName bounds the result kind of a cast to the named type.
func atomFromTypeName(typeName string) Atom {
	switch typeName {
	case "xs:string":
		return AStr
	case "xs:boolean":
		return ABool
	case "xs:integer", "xs:int", "xs:long", "xs:nonNegativeInteger", "xs:positiveInteger":
		return AInt
	case "xs:decimal":
		return ADec
	case "xs:double", "xs:float":
		return ADbl
	case "xs:untypedAtomic", "xdt:untypedAtomic":
		return AUntyped
	}
	return AAny
}

// atomFromName maps a funclib.Sig atomic-bound name to the bitset.
func atomFromName(name string) Atom {
	switch name {
	case "":
		return ANone
	case "integer":
		return AInt
	case "decimal":
		return ADec
	case "double":
		return ADbl
	case "numeric":
		return ANum
	case "boolean":
		return ABool
	case "string":
		return AStr
	case "untyped":
		return AUntyped
	}
	return AAny
}

// meet intersects two upper bounds (used when a value is known to satisfy
// both, e.g. a typeswitch case binding).
func meet(a, b Shape) Shape {
	lo := max(a.Occ.Lo(), b.Occ.Lo())
	hi := min(a.Occ.Hi(), b.Occ.Hi())
	if hi < lo {
		// Jointly unsatisfiable: the value cannot exist, so any bound is
		// vacuous; Empty keeps downstream math sane.
		return emptyShape(a.Total && b.Total)
	}
	return Shape{
		Occ:      occFromBounds(lo, hi),
		Atomic:   a.Atomic & b.Atomic,
		NodeFree: a.NodeFree || b.NodeFree,
		Total:    a.Total && b.Total,
	}.norm()
}

// Subsumes reports that EVERY value admitted by the shape matches the
// sequence type, so a runtime Matches check against it must pass.
func Subsumes(s Shape, t xdm.SequenceType) bool {
	if t.Kind == xdm.TestEmptySequence {
		return s.Occ == OccEmpty
	}
	if !s.Occ.Sub(occFromXdm(t.Occurrence)) {
		return false
	}
	switch t.Kind {
	case xdm.TestAnyItem:
		return true
	case xdm.TestAtomic:
		return s.NodeFree && s.Atomic.Sub(atomsSubsumedBy(t.TypeName))
	case xdm.TestAnyNode:
		return s.Atomic == ANone
	}
	return false
}
