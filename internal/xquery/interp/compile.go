package interp

// compile.go is the compile layer of the two-stage engine. It lowers the
// (optimizer-processed) AST once, at compile time, into a tree of
// closure-compiled expressions:
//
//   - every variable reference is resolved to an integer frame slot (local
//     scope) or global slot (prolog/external variables) — the runtime never
//     walks an environment by name;
//   - every function call is pre-bound: user functions to their compiled
//     bodies, built-ins to their *funclib.Func pointers (unknown names
//     compile to a closure raising XPST0017, keeping the error catchable);
//   - static facts are precomputed: literal values, FLWOR clause shapes,
//     boundary-whitespace decisions, axis/name-test matchers.
//
// The runtime layer (the closures plus the helpers they call) preserves the
// tree-walker's observable semantics exactly: each compiled expression
// charges one evaluation step when invoked, so every Limits budget trips at
// the same thresholds as before, and limit errors stay uncatchable.

import (
	"fmt"
	"math"
	"sort"

	"lopsided/internal/obs"
	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/funclib"
	"lopsided/internal/xquery/shapes"
)

// compiledExpr is the runtime form of one expression: invoke it with the
// evaluation context to produce the expression's value.
type compiledExpr func(*evalCtx) (xdm.Sequence, error)

// compiledFunc is one compiled user-function declaration. body is filled
// in a second pass so calls pre-bind regardless of declaration order
// (mutual recursion works).
type compiledFunc struct {
	name      string
	params    []ast.Param
	ret       xdm.SequenceType
	declPos   ast.Pos
	frameSize int
	body      compiledExpr
	// memo is the global slot, past the variables' (so no name binds it),
	// that keeps an invariant function's result for the rest of an
	// evaluation; -1 when the optimizer did not mark the function.
	memo int
	// invariance is the call note's verdict on a zero-arity function, ""
	// when the optimizer gave none.
	invariance string
}

// prologStep is one prolog variable declaration: an initializer to run, or
// (init == nil) an external declaration to check.
type prologStep struct {
	slot int
	name string
	pos  ast.Pos
	init compiledExpr
}

// Program is the compiled, immutable form of a module. A Program holds no
// mutable evaluation state: it is safe to share between any number of
// concurrent, differently-configured evaluations (Eval, Transform), which
// is what the xq plan cache relies on.
type Program struct {
	mod *ast.Module
	// globalNames/globalIdx give every prolog variable and every free
	// (externally-supplied) variable name a global slot.
	globalNames []string
	globalIdx   map[string]int
	prolog      []prologStep
	body        compiledExpr
	// frameSize is the local-slot frame size shared by the prolog
	// initializers and the main body.
	frameSize int
	funcs     map[string]map[int]*compiledFunc
	// notes records the compile-time decisions (slot assignments, dispatch
	// pre-binding, FLWOR shapes) for Explain; built once per compile.
	notes []planNote
	// elided carries the fn:trace sites dead-code elimination removed, for
	// once-per-evaluation reporting to the tracer.
	elided []ast.ElidedTrace
	// shapes is the static shape analysis of mod, when the host ran one
	// (NewProgramWithShapes). Explain annotates the plan with it; the
	// compiled closures are the same with or without it.
	shapes *shapes.Info
	// stmts is the compiled statement list of an update program (see
	// update.go), run by Transform; nil for a query.
	stmts []compiledStmt
	// memos counts the invariant functions' slots, which follow the
	// variables' in every evaluation's globals.
	memos int
}

// IsUpdate reports whether this program was compiled from an update program
// (a module with statements) rather than a query.
func (p *Program) IsUpdate() bool { return p.mod.Stmts != nil }

// planNote is one compile-time fact about the plan: what the compiler
// decided at a source position. The sequence of notes, printed by Explain,
// is the human-readable face of the closure-compiled plan.
type planNote struct {
	pos  ast.Pos
	text string
}

// sortedNotes returns the compile-time plan facts in source order.
func (p *Program) sortedNotes() []planNote {
	out := make([]planNote, len(p.notes))
	copy(out, p.notes)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].pos.Line != out[j].pos.Line {
			return out[i].pos.Line < out[j].pos.Line
		}
		return out[i].pos.Col < out[j].pos.Col
	})
	return out
}

// Module returns the parsed module this program was compiled from.
func (p *Program) Module() *ast.Module { return p.mod }

// NewProgramWithShapes compiles a parsed (and typically optimizer-processed)
// module into its closure-compiled form: a query's body, or an update
// program's statement list over the same prolog machinery. The facts of a
// static shape analysis, when attached, annotate Explain's plan dump; every
// runtime check compiles either way. info must come from shapes.InferModule
// over the SAME AST (post-optimization) and may be nil.
func NewProgramWithShapes(mod *ast.Module, info *shapes.Info) (*Program, error) {
	p := &Program{mod: mod, globalIdx: map[string]int{}, funcs: map[string]map[int]*compiledFunc{},
		elided: mod.ElidedTraces, shapes: info}
	// Pass 1: declare shells so call sites pre-bind in any order.
	var memoized []*compiledFunc
	for _, f := range mod.Functions {
		byArity := p.funcs[f.Name]
		if byArity == nil {
			byArity = map[int]*compiledFunc{}
			p.funcs[f.Name] = byArity
		}
		if _, dup := byArity[len(f.Params)]; dup {
			return nil, &Error{Code: "XQST0034", Pos: f.P,
				Msg: fmt.Sprintf("function %s/%d declared twice", f.Name, len(f.Params))}
		}
		cf := &compiledFunc{name: f.Name, params: f.Params, ret: f.Ret, declPos: f.P, memo: -1}
		switch {
		case f.Invariant:
			cf.invariance = ", invariant: once per evaluation"
			memoized = append(memoized, cf)
		case f.NotInvariant != "":
			cf.invariance = ", not invariant: " + f.NotInvariant
		}
		byArity[len(f.Params)] = cf
	}
	// Pass 2: compile bodies. Parameters occupy the first frame slots.
	for _, f := range mod.Functions {
		cf := p.funcs[f.Name][len(f.Params)]
		cp := &compiler{prog: p}
		for _, prm := range f.Params {
			cp.bindLocal(prm.Name)
		}
		cf.body = cp.compile(f.Body)
		cf.frameSize = cp.water
	}
	// Prolog initializers and the main body (or statement list) share one
	// frame scope: each runs with an empty local scope, so their slots can
	// overlap.
	cp := &compiler{prog: p}
	for _, vd := range mod.Vars {
		st := prologStep{slot: cp.globalSlot(vd.Name), name: vd.Name, pos: vd.P}
		if vd.Val != nil {
			st.init = cp.compile(vd.Val)
		}
		p.prolog = append(p.prolog, st)
	}
	if mod.Stmts != nil {
		p.stmts = make([]compiledStmt, len(mod.Stmts))
		for i, s := range mod.Stmts {
			p.stmts[i] = cp.compileStmt(s)
		}
		// An update program has no body; Eval on it yields the empty sequence.
		p.body = constExpr(xdm.Empty)
	} else {
		p.body = cp.compile(mod.Body)
	}
	p.frameSize = cp.water
	// Every variable has its global slot now; the memo slots go after them.
	for i, cf := range memoized {
		cf.memo = len(p.globalNames) + i
	}
	p.memos = len(memoized)
	return p, nil
}

// compiler carries the compile-time state of one frame scope (the main
// body or one function body): the stack of visible local names, whose
// indices are the frame slots, and the high-water mark that becomes the
// frame size.
type compiler struct {
	prog  *Program
	scope []string
	water int
}

// bindLocal pushes a local binding and returns its frame slot. Shadowing
// just pushes again: resolveLocal searches innermost-first.
func (cp *compiler) bindLocal(name string) int {
	slot := len(cp.scope)
	cp.scope = append(cp.scope, name)
	if len(cp.scope) > cp.water {
		cp.water = len(cp.scope)
	}
	return slot
}

// popLocals removes the innermost n bindings when their construct's
// compilation ends; the slots are reused by sibling constructs.
func (cp *compiler) popLocals(n int) {
	cp.scope = cp.scope[:len(cp.scope)-n]
}

// note records one compile-time plan fact for Explain.
func (cp *compiler) note(pos ast.Pos, format string, args ...interface{}) {
	cp.prog.notes = append(cp.prog.notes, planNote{pos: pos, text: fmt.Sprintf(format, args...)})
}

// resolveLocal finds the innermost local slot for name.
func (cp *compiler) resolveLocal(name string) (int, bool) {
	for i := len(cp.scope) - 1; i >= 0; i-- {
		if cp.scope[i] == name {
			return i, true
		}
	}
	return 0, false
}

// globalSlot returns (allocating on first use) the global slot for name.
// Every free variable gets one: whether it is later supplied externally is
// a runtime question, so "$nope" stays a catchable runtime XPST0008, not a
// compile error.
func (cp *compiler) globalSlot(name string) int {
	if s, ok := cp.prog.globalIdx[name]; ok {
		return s
	}
	s := len(cp.prog.globalNames)
	cp.prog.globalIdx[name] = s
	cp.prog.globalNames = append(cp.prog.globalNames, name)
	return s
}

// atomizeOne is the operand coercion before arithmetic, value comparison
// and cast: atomize, then at most one item (nil for empty). Errors carry pos.
func atomizeOne(v xdm.Sequence, pos ast.Pos) (xdm.Item, error) {
	it, err := xdm.Atomize(v).AtMostOne()
	if err != nil {
		return nil, errAt(err, pos)
	}
	return it, nil
}

// effectiveBool is the condition coercion before a branch. Errors carry pos.
func effectiveBool(v xdm.Sequence, pos ast.Pos) (bool, error) {
	b, err := xdm.EffectiveBool(v)
	if err != nil {
		return false, errAt(err, pos)
	}
	return b, nil
}

// compile lowers one expression. The returned closure charges one
// evaluation step per invocation — the same accounting as the old
// tree-walker's per-node charge — before running the expression body.
func (cp *compiler) compile(e ast.Expr) compiledExpr {
	inner := cp.compileBody(e)
	pos := e.Pos()
	return func(c *evalCtx) (xdm.Sequence, error) {
		if c.bud != nil {
			if err := c.bud.step(); err != nil {
				return nil, errAt(err, pos)
			}
		}
		return inner(c)
	}
}

func constExpr(val xdm.Sequence) compiledExpr {
	return func(*evalCtx) (xdm.Sequence, error) { return val, nil }
}

func (cp *compiler) compileBody(e ast.Expr) compiledExpr {
	switch n := e.(type) {
	case *ast.StringLit:
		return constExpr(xdm.Singleton(xdm.String(n.Value)))
	case *ast.IntLit:
		return constExpr(xdm.Singleton(xdm.Integer(n.Value)))
	case *ast.DecimalLit:
		return constExpr(xdm.Singleton(n.Value))
	case *ast.DoubleLit:
		return constExpr(xdm.Singleton(xdm.Double(n.Value)))
	case *ast.EmptySeq:
		return constExpr(xdm.Empty)
	case *ast.VarRef:
		return cp.compileVarRef(n)
	case *ast.ContextItem:
		pos := n.P
		return func(c *evalCtx) (xdm.Sequence, error) {
			it, err := c.FocusItem()
			if err != nil {
				return nil, errAt(err, pos)
			}
			return xdm.Singleton(it), nil
		}
	case *ast.SequenceExpr:
		items := make([]compiledExpr, len(n.Items))
		for i, item := range n.Items {
			items[i] = cp.compile(item)
		}
		// The comma operator: concatenation IS flattening.
		return func(c *evalCtx) (xdm.Sequence, error) {
			seqs := make([]xdm.Sequence, len(items))
			for i, ce := range items {
				s, err := ce(c)
				if err != nil {
					return nil, err
				}
				seqs[i] = s
			}
			return xdm.Concat(seqs...), nil
		}
	case *ast.RangeExpr:
		return cp.compileRange(n)
	case *ast.Binary:
		return cp.compileBinary(n)
	case *ast.Unary:
		return cp.compileUnary(n)
	case *ast.IfExpr:
		cond, then, els := cp.compile(n.Cond), cp.compile(n.Then), cp.compile(n.Else)
		pos := n.P
		return func(c *evalCtx) (xdm.Sequence, error) {
			cv, err := cond(c)
			if err != nil {
				return nil, err
			}
			b, err := effectiveBool(cv, pos)
			if err != nil {
				return nil, err
			}
			if b {
				return then(c)
			}
			return els(c)
		}
	case *ast.FLWOR:
		return cp.compileFLWOR(n)
	case *ast.Quantified:
		return cp.compileQuantified(n)
	case *ast.Typeswitch:
		return cp.compileTypeswitch(n)
	case *ast.PathExpr:
		return cp.compilePath(n)
	case *ast.FunctionCall:
		return cp.compileCall(n)
	case *ast.InstanceOf:
		operand := cp.compile(n.Operand)
		typ := n.Type
		return func(c *evalCtx) (xdm.Sequence, error) {
			v, err := operand(c)
			if err != nil {
				return nil, err
			}
			return xdm.BoolSeq(typ.Matches(v)), nil
		}
	case *ast.TreatAs:
		operand := cp.compile(n.Operand)
		typ, pos := n.Type, n.P
		return func(c *evalCtx) (xdm.Sequence, error) {
			v, err := operand(c)
			if err != nil {
				return nil, err
			}
			if !typ.Matches(v) {
				return nil, &Error{Code: "XPDY0050", Pos: pos,
					Msg: fmt.Sprintf("treat as %s failed", typ)}
			}
			return v, nil
		}
	case *ast.CastAs:
		return cp.compileCast(n.Operand, n.TypeName, n.Optional, false, n.P)
	case *ast.CastableAs:
		return cp.compileCast(n.Operand, n.TypeName, n.Optional, true, n.P)
	case *ast.DirElem, *ast.CompElem, *ast.CompDoc:
		return cp.compileContainer(n)
	case *ast.CompAttr, *ast.CompText, *ast.CompComment, *ast.CompPI, *ast.DirComment, *ast.DirPI:
		return cp.compileLeaf(n)
	case *ast.TryCatch:
		return cp.compileTryCatch(n)
	}
	pos := e.Pos()
	msg := fmt.Sprintf("unsupported expression %T", e)
	return func(*evalCtx) (xdm.Sequence, error) {
		return nil, &Error{Code: "XQST0031", Pos: pos, Msg: msg}
	}
}

func (cp *compiler) compileVarRef(n *ast.VarRef) compiledExpr {
	if slot, ok := cp.resolveLocal(n.Name); ok {
		cp.note(n.P, "var $%s -> local slot %d", n.Name, slot)
		return func(c *evalCtx) (xdm.Sequence, error) { return c.frame[slot], nil }
	}
	slot := cp.globalSlot(n.Name)
	cp.note(n.P, "var $%s -> global slot %d", n.Name, slot)
	name, pos := n.Name, n.P
	return func(c *evalCtx) (xdm.Sequence, error) {
		if !c.gset[slot] {
			// Galax printed "Internal_Error: Variable '$glx:dot' not found"
			// with no position; we do better on both counts.
			return nil, &Error{Code: "XPST0008", Pos: pos,
				Msg: fmt.Sprintf("variable $%s not found", name)}
		}
		return c.globals[slot], nil
	}
}

func (cp *compiler) compileRange(n *ast.RangeExpr) compiledExpr {
	loExpr, hiExpr := cp.compile(n.Lo), cp.compile(n.Hi)
	pos := n.P
	return func(c *evalCtx) (xdm.Sequence, error) {
		lo, err := evalIntOpt(c, loExpr)
		if err != nil {
			return nil, errAt(err, pos)
		}
		hi, err := evalIntOpt(c, hiExpr)
		if err != nil {
			return nil, errAt(err, pos)
		}
		if lo == nil || hi == nil || *lo > *hi {
			return xdm.Empty, nil
		}
		if xdm.RangeTooWide(*lo, *hi) {
			return nil, &Error{Code: "FOAR0002", Pos: pos, Msg: "range expression too large"}
		}
		// A range materializes its full width in one expression; charge it as
		// bulk steps so `1 to 10000000` cannot dodge the step budget.
		if c.bud != nil {
			if err := c.bud.addSteps(*hi - *lo + 1); err != nil {
				return nil, errAt(err, pos)
			}
		}
		width := *hi - *lo + 1
		// Cap the preallocation and poll while materializing: a wide range under
		// a wall-clock budget must stay interruptible mid-build, not only after
		// the whole slice exists.
		capHint := width
		if capHint > 1<<16 {
			capHint = 1 << 16
		}
		out := make(xdm.Sequence, 0, capHint)
		// Counted, not compared with hi: a range ending at MaxInt64 has no
		// v past its end.
		for i := int64(0); i < width; i++ {
			if c.bud != nil && i%pollEvery == 0 {
				if err := c.bud.poll(); err != nil {
					return nil, errAt(err, pos)
				}
			}
			out = append(out, xdm.Integer(*lo+i))
		}
		return out, nil
	}
}

// evalIntOpt evaluates a compiled operand to an optional integer (nil for
// empty).
func evalIntOpt(c *evalCtx, ce compiledExpr) (*int64, error) {
	v, err := ce(c)
	if err != nil {
		return nil, err
	}
	it, err := xdm.Atomize(v).AtMostOne()
	if err != nil {
		return nil, err
	}
	if it == nil {
		return nil, nil
	}
	cast, err := xdm.CastTo(it, xdm.IntegerType)
	if err != nil {
		return nil, err
	}
	i := int64(cast.(xdm.Integer))
	return &i, nil
}

func (cp *compiler) compileUnary(n *ast.Unary) compiledExpr {
	operand := cp.compile(n.Operand)
	minus, pos := n.Minus, n.P
	return func(c *evalCtx) (xdm.Sequence, error) {
		v, err := operand(c)
		if err != nil {
			return nil, err
		}
		it, err := atomizeOne(v, pos)
		if err != nil {
			return nil, err
		}
		if it == nil {
			return xdm.Empty, nil
		}
		if !minus {
			if !xdm.IsNumeric(it) {
				if u, ok := it.(xdm.Untyped); ok {
					return xdm.Singleton(xdm.Double(xdm.NumberOf(u))), nil
				}
				return nil, &Error{Code: "XPTY0004", Pos: pos, Msg: "unary plus on non-numeric value"}
			}
			return xdm.Singleton(it), nil
		}
		out, err := xdm.Negate(it)
		if err != nil {
			return nil, errAt(err, pos)
		}
		return xdm.Singleton(out), nil
	}
}

func (cp *compiler) compileBinary(n *ast.Binary) compiledExpr {
	l, r := cp.compile(n.L), cp.compile(n.R)
	pos := n.P
	switch n.Kind {
	case ast.OpOr, ast.OpAnd:
		isOr := n.Kind == ast.OpOr
		return func(c *evalCtx) (xdm.Sequence, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			lb, err := effectiveBool(lv, pos)
			if err != nil {
				return nil, err
			}
			if isOr && lb {
				return xdm.BoolSeq(true), nil
			}
			if !isOr && !lb {
				return xdm.BoolSeq(false), nil
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			rb, err := effectiveBool(rv, pos)
			if err != nil {
				return nil, err
			}
			return xdm.BoolSeq(rb), nil
		}
	case ast.OpGeneralComp:
		cmp := n.Cmp
		return func(c *evalCtx) (xdm.Sequence, error) {
			lv, rv, err := evalPair(c, l, r)
			if err != nil {
				return nil, err
			}
			ok, err := xdm.CompareGeneral(lv, rv, cmp)
			if err != nil {
				return nil, errAt(err, pos)
			}
			return xdm.BoolSeq(ok), nil
		}
	case ast.OpValueComp:
		cmp := n.Cmp
		return func(c *evalCtx) (xdm.Sequence, error) {
			lv, rv, err := evalPair(c, l, r)
			if err != nil {
				return nil, err
			}
			li, err := atomizeOne(lv, pos)
			if err != nil {
				return nil, err
			}
			ri, err := atomizeOne(rv, pos)
			if err != nil {
				return nil, err
			}
			if li == nil || ri == nil {
				return xdm.Empty, nil
			}
			ok, err := xdm.CompareValue(li, ri, cmp)
			if err != nil {
				return nil, errAt(err, pos)
			}
			return xdm.BoolSeq(ok), nil
		}
	case ast.OpNodeIs, ast.OpNodeBefore, ast.OpNodeAfter:
		kind := n.Kind
		return func(c *evalCtx) (xdm.Sequence, error) {
			lv, rv, err := evalPair(c, l, r)
			if err != nil {
				return nil, err
			}
			ln, err := nodeOperand(lv, pos)
			if err != nil {
				return nil, err
			}
			rn, err := nodeOperand(rv, pos)
			if err != nil {
				return nil, err
			}
			if ln == nil || rn == nil {
				return xdm.Empty, nil
			}
			var ok bool
			switch kind {
			case ast.OpNodeIs:
				ok = ln == rn
			case ast.OpNodeBefore:
				ok = xmltree.CompareDocOrder(ln, rn) < 0
			case ast.OpNodeAfter:
				ok = xmltree.CompareDocOrder(ln, rn) > 0
			}
			return xdm.BoolSeq(ok), nil
		}
	case ast.OpArith:
		op := n.Arith
		return func(c *evalCtx) (xdm.Sequence, error) {
			lv, rv, err := evalPair(c, l, r)
			if err != nil {
				return nil, err
			}
			li, err := atomizeOne(lv, pos)
			if err != nil {
				return nil, err
			}
			ri, err := atomizeOne(rv, pos)
			if err != nil {
				return nil, err
			}
			if li == nil || ri == nil {
				return xdm.Empty, nil
			}
			out, err := xdm.Arith(li, ri, op)
			if err != nil {
				return nil, errAt(err, pos)
			}
			return xdm.Singleton(out), nil
		}
	case ast.OpUnion, ast.OpIntersect, ast.OpExcept:
		kind := n.Kind
		return func(c *evalCtx) (xdm.Sequence, error) {
			lv, rv, err := evalPair(c, l, r)
			if err != nil {
				return nil, err
			}
			return evalSetOp(kind, lv, rv, pos)
		}
	}
	// Unsupported operator kinds (e.g. ||): evaluate both operands, then
	// fail — the tree-walker's ordering, so operand errors win.
	return func(c *evalCtx) (xdm.Sequence, error) {
		if _, _, err := evalPair(c, l, r); err != nil {
			return nil, err
		}
		return nil, &Error{Code: "XQST0031", Pos: pos, Msg: "unsupported binary operator"}
	}
}

// evalPair evaluates a binary operator's operands left-to-right.
func evalPair(c *evalCtx, l, r compiledExpr) (xdm.Sequence, xdm.Sequence, error) {
	lv, err := l(c)
	if err != nil {
		return nil, nil, err
	}
	rv, err := r(c)
	if err != nil {
		return nil, nil, err
	}
	return lv, rv, nil
}

func nodeOperand(s xdm.Sequence, pos ast.Pos) (*xmltree.Node, error) {
	it, err := s.AtMostOne()
	if err != nil {
		return nil, errAt(err, pos)
	}
	if it == nil {
		return nil, nil
	}
	n, ok := xdm.IsNode(it)
	if !ok {
		return nil, &Error{Code: "XPTY0004", Pos: pos, Msg: "node comparison on a non-node value"}
	}
	return n, nil
}

func evalSetOp(kind ast.BinOpKind, l, r xdm.Sequence, pos ast.Pos) (xdm.Sequence, error) {
	ln, err := l.Nodes()
	if err != nil {
		return nil, errAt(err, pos)
	}
	rn, err := r.Nodes()
	if err != nil {
		return nil, errAt(err, pos)
	}
	inRight := make(map[*xmltree.Node]bool, len(rn))
	for _, x := range rn {
		inRight[x] = true
	}
	var out []*xmltree.Node
	switch kind {
	case ast.OpUnion:
		out = append(append(out, ln...), rn...)
	case ast.OpIntersect:
		for _, x := range ln {
			if inRight[x] {
				out = append(out, x)
			}
		}
	case ast.OpExcept:
		for _, x := range ln {
			if !inRight[x] {
				out = append(out, x)
			}
		}
	}
	return xdm.FromNodes(xmltree.SortDocOrder(out)), nil
}

func (cp *compiler) compileCast(operand ast.Expr, typeName string, optional, castableOnly bool, pos ast.Pos) compiledExpr {
	op := cp.compile(operand)
	typ, _ := xdm.TypeNamed(typeName)
	return func(c *evalCtx) (xdm.Sequence, error) {
		v, err := op(c)
		if err != nil {
			return nil, err
		}
		it, err := atomizeOne(v, pos)
		if err != nil {
			if castableOnly {
				return xdm.BoolSeq(false), nil
			}
			return nil, err
		}
		if it == nil {
			if castableOnly {
				return xdm.BoolSeq(optional), nil
			}
			if optional {
				return xdm.Empty, nil
			}
			return nil, &Error{Code: "XPTY0004", Pos: pos, Msg: "cast of empty sequence to non-optional type"}
		}
		out, err := xdm.CastTo(it, typ)
		if castableOnly {
			return xdm.BoolSeq(err == nil), nil
		}
		if err != nil {
			return nil, errAt(err, pos)
		}
		return xdm.Singleton(out), nil
	}
}

// ---- FLWOR ----

type orderRow struct {
	keys []xdm.Item // nil item = empty key
	seq  xdm.Sequence
	idx  int
}

// flworClausePlan is one compiled for/let clause: the clause shape (for vs
// let, positional variable or not) is a compile-time fact.
type flworClausePlan struct {
	isFor   bool
	expr    compiledExpr // for: the "in" sequence; let: the bound value
	slot    int
	posSlot int // -1 when the for clause has no "at $p"
	// label names the clause for tracer events ("for $x at $i", "let $y");
	// pos is the clause's own source position.
	label string
	pos   ast.Pos
}

type orderPlan struct {
	key  compiledExpr
	spec ast.OrderSpec
}

type flworPlan struct {
	clauses []flworClausePlan
	where   compiledExpr // nil if absent
	orderBy []orderPlan
	ret     compiledExpr
	pos     ast.Pos
}

// positionBlock is how many positional-variable values a for clause makes
// at once: enough to spread one allocation over many iterations, few enough
// that a loop over a huge sequence holds no table as long as its input.
const positionBlock = 64

// flworSink accumulates tuple results: directly into out for unordered
// FLWORs, into keyed rows when order-by is present.
type flworSink struct {
	out  xdm.Sequence
	rows []orderRow
}

func (cp *compiler) compileFLWOR(n *ast.FLWOR) compiledExpr {
	p := &flworPlan{pos: n.P}
	bound := 0
	for _, cl := range n.Clauses {
		switch c := cl.(type) {
		case ast.ForClause:
			in := cp.compile(c.In)
			slot := cp.bindLocal(c.Var)
			bound++
			posSlot := -1
			label := "for $" + c.Var
			if c.PosVar != "" {
				posSlot = cp.bindLocal(c.PosVar)
				bound++
				label += " at $" + c.PosVar
			}
			cp.note(c.P, "flwor %s -> slot %d (pos slot %d)", label, slot, posSlot)
			p.clauses = append(p.clauses, flworClausePlan{isFor: true, expr: in, slot: slot, posSlot: posSlot,
				label: label, pos: c.P})
		case ast.LetClause:
			val := cp.compile(c.Val)
			slot := cp.bindLocal(c.Var)
			bound++
			label := "let $" + c.Var
			cp.note(c.P, "flwor %s -> slot %d", label, slot)
			p.clauses = append(p.clauses, flworClausePlan{expr: val, slot: slot, posSlot: -1,
				label: label, pos: c.P})
		}
	}
	if n.Where != nil {
		p.where = cp.compile(n.Where)
	}
	for _, spec := range n.OrderBy {
		p.orderBy = append(p.orderBy, orderPlan{key: cp.compile(spec.Key), spec: spec})
	}
	p.ret = cp.compile(n.Return)
	cp.popLocals(bound)
	return p.eval
}

func (p *flworPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	var sink flworSink
	if err := p.run(c, 0, &sink); err != nil {
		return nil, err
	}
	out := sink.out
	if len(p.orderBy) == 0 {
		if out == nil {
			return xdm.Empty, nil
		}
		return out, nil
	}
	rows := sink.rows
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range p.orderBy {
			cmp, err := compareOrderKeys(rows[i].keys[k], rows[j].keys[k], p.orderBy[k].spec)
			if err != nil && sortErr == nil {
				sortErr = errAt(err, p.pos)
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return rows[i].idx < rows[j].idx
	})
	if sortErr != nil {
		return nil, sortErr
	}
	for _, row := range rows {
		out = append(out, row.seq...)
	}
	if out == nil {
		return xdm.Empty, nil
	}
	return out, nil
}

// run expands for/let clauses recursively, writing bindings straight into
// the frame slots — no environment allocation per iteration.
func (p *flworPlan) run(c *evalCtx, i int, sink *flworSink) error {
	if i == len(p.clauses) {
		return p.emit(c, sink)
	}
	cl := &p.clauses[i]
	seq, err := cl.expr(c)
	if err != nil {
		return err
	}
	if !cl.isFor {
		c.frame[cl.slot] = seq
		if c.tr != nil {
			c.tr.Emit(obs.Event{Kind: obs.ClauseIter, Name: cl.label,
				Line: cl.pos.Line, Col: cl.pos.Col})
		}
		return p.run(c, i+1, sink)
	}
	// The variable is bound to a one-item window on seq, its position to
	// one on a block of positions made positionBlock at a time: no slice is
	// allocated per iteration, and the capacity bound makes an append to
	// either copy.
	var positions xdm.Sequence
	for idx := range seq {
		c.frame[cl.slot] = seq[idx : idx+1 : idx+1]
		if cl.posSlot >= 0 {
			k := idx % positionBlock
			if k == 0 {
				positions = make(xdm.Sequence, min(positionBlock, len(seq)-idx))
				for j := range positions {
					positions[j] = xdm.Integer(idx + j + 1)
				}
			}
			c.frame[cl.posSlot] = positions[k : k+1 : k+1]
		}
		if c.tr != nil {
			c.tr.Emit(obs.Event{Kind: obs.ClauseIter, Name: cl.label,
				Line: cl.pos.Line, Col: cl.pos.Col, Iter: int64(idx + 1)})
		}
		if err := p.run(c, i+1, sink); err != nil {
			return err
		}
	}
	return nil
}

// emit runs where/order-by/return for one binding combination.
func (p *flworPlan) emit(c *evalCtx, sink *flworSink) error {
	if p.where != nil {
		w, err := p.where(c)
		if err != nil {
			return err
		}
		ok, err := effectiveBool(w, p.pos)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	if len(p.orderBy) > 0 {
		row := orderRow{idx: len(sink.rows)}
		for _, op := range p.orderBy {
			kv, err := op.key(c)
			if err != nil {
				return err
			}
			ki, err := atomizeOne(kv, p.pos)
			if err != nil {
				return err
			}
			row.keys = append(row.keys, ki)
		}
		ret, err := p.ret(c)
		if err != nil {
			return err
		}
		row.seq = ret
		sink.rows = append(sink.rows, row)
		return nil
	}
	ret, err := p.ret(c)
	if err != nil {
		return err
	}
	// Amortized append, not xdm.Concat: a fresh copy per iteration is
	// quadratic in the result size, which lets a long loop outrun every
	// budget charged downstream of it.
	sink.out = append(sink.out, ret...)
	return nil
}

// compareOrderKeys orders two order-by keys per the spec's rules for empty
// and NaN placement (empty per the spec modifier; NaN just above empty).
func compareOrderKeys(a, b xdm.Item, spec ast.OrderSpec) (int, error) {
	rank := func(it xdm.Item) int {
		if it == nil {
			return 0
		}
		if xdm.IsNumeric(it) && math.IsNaN(xdm.NumberOf(it)) {
			return 1
		}
		return 2
	}
	ra, rb := rank(a), rank(b)
	cmp := 0
	switch {
	case ra != 2 || rb != 2:
		cmp = ra - rb
		if !spec.EmptyLeast {
			cmp = -cmp
		}
	default:
		lt, err := xdm.CompareValue(a, b, xdm.OpLt)
		if err != nil {
			return 0, err
		}
		gt, err := xdm.CompareValue(a, b, xdm.OpGt)
		if err != nil {
			return 0, err
		}
		switch {
		case lt:
			cmp = -1
		case gt:
			cmp = 1
		}
	}
	if spec.Descending {
		cmp = -cmp
	}
	return cmp, nil
}

// ---- Quantified ----

type quantVarPlan struct {
	in   compiledExpr
	slot int
}

type quantPlan struct {
	every bool
	vars  []quantVarPlan
	sat   compiledExpr
	pos   ast.Pos
}

func (cp *compiler) compileQuantified(n *ast.Quantified) compiledExpr {
	p := &quantPlan{every: n.Every, pos: n.P}
	for _, v := range n.Vars {
		in := cp.compile(v.In)
		p.vars = append(p.vars, quantVarPlan{in: in, slot: cp.bindLocal(v.Var)})
	}
	p.sat = cp.compile(n.Satisfy)
	cp.popLocals(len(p.vars))
	return p.eval
}

func (p *quantPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	result, err := p.quantify(c, 0)
	if err != nil {
		return nil, err
	}
	return xdm.BoolSeq(result), nil
}

func (p *quantPlan) quantify(c *evalCtx, i int) (bool, error) {
	if i == len(p.vars) {
		v, err := p.sat(c)
		if err != nil {
			return false, err
		}
		return effectiveBool(v, p.pos)
	}
	seq, err := p.vars[i].in(c)
	if err != nil {
		return false, err
	}
	for k := range seq {
		c.frame[p.vars[i].slot] = seq[k : k+1 : k+1]
		ok, err := p.quantify(c, i+1)
		if err != nil {
			return false, err
		}
		if ok && !p.every {
			return true, nil
		}
		if !ok && p.every {
			return false, nil
		}
	}
	return p.every, nil
}

// ---- Typeswitch ----

type tsCasePlan struct {
	typ  xdm.SequenceType
	slot int // -1 when the case binds no variable
	ret  compiledExpr
}

func (cp *compiler) compileTypeswitch(n *ast.Typeswitch) compiledExpr {
	operand := cp.compile(n.Operand)
	cases := make([]tsCasePlan, len(n.Cases))
	for i, cs := range n.Cases {
		slot := -1
		bound := 0
		if cs.Var != "" {
			slot = cp.bindLocal(cs.Var)
			bound = 1
		}
		cases[i] = tsCasePlan{typ: cs.Type, slot: slot, ret: cp.compile(cs.Ret)}
		cp.popLocals(bound)
	}
	defSlot := -1
	bound := 0
	if n.DefaultVar != "" {
		defSlot = cp.bindLocal(n.DefaultVar)
		bound = 1
	}
	def := cp.compile(n.Default)
	cp.popLocals(bound)
	return func(c *evalCtx) (xdm.Sequence, error) {
		v, err := operand(c)
		if err != nil {
			return nil, err
		}
		for i := range cases {
			cs := &cases[i]
			if cs.typ.Matches(v) {
				if cs.slot >= 0 {
					c.frame[cs.slot] = v
				}
				return cs.ret(c)
			}
		}
		if defSlot >= 0 {
			c.frame[defSlot] = v
		}
		return def(c)
	}
}

// ---- Try/catch ----

// compileTryCatch implements the exception-handling extension (the paper's
// lesson #4). A dynamic error in the try expression transfers control to
// the catch expression, optionally binding the error code and description —
// "a very rudimentary form of exception handling will do".
func (cp *compiler) compileTryCatch(n *ast.TryCatch) compiledExpr {
	try := cp.compile(n.Try)
	bound := 0
	codeSlot, varSlot := -1, -1
	if n.CatchCodeVar != "" {
		codeSlot = cp.bindLocal(n.CatchCodeVar)
		bound++
	}
	if n.CatchVar != "" {
		varSlot = cp.bindLocal(n.CatchVar)
		bound++
	}
	catch := cp.compile(n.Catch)
	cp.popLocals(bound)
	return func(c *evalCtx) (xdm.Sequence, error) {
		// The catch branch must observe the focus of the try/catch site,
		// not whatever focus the failing subexpression had set.
		savedFocus := c.focus
		out, err := try(c)
		if err == nil {
			return out, nil
		}
		c.focus = savedFocus
		code, msg := errorParts(err)
		if codeSlot >= 0 {
			c.frame[codeSlot] = xdm.Singleton(xdm.String(code))
		}
		if varSlot >= 0 {
			c.frame[varSlot] = xdm.Singleton(xdm.String(msg))
		}
		return catch(c)
	}
}

// ---- Function calls ----

// compileCall pre-binds dispatch at compile time: user-declared functions
// (name+arity) first, then built-ins via one funclib.Lookup, and unknown
// names become a closure raising XPST0017 at call time (after evaluating
// the arguments, as the tree-walker did — so the error stays catchable and
// argument errors still win).
func (cp *compiler) compileCall(n *ast.FunctionCall) compiledExpr {
	args := make([]compiledExpr, len(n.Args))
	for i, a := range n.Args {
		args[i] = cp.compile(a)
	}
	pos := n.P
	if byArity, ok := cp.prog.funcs[n.Name]; ok {
		if fn, ok := byArity[len(n.Args)]; ok {
			cp.note(pos, "call %s/%d -> user function (frame %d%s)", n.Name, len(n.Args), fn.frameSize, fn.invariance)
			return (&userCall{fn: fn, args: args, pos: pos}).eval
		}
	}
	if f, ok := funclib.Lookup(n.Name, len(n.Args)); ok {
		cp.note(pos, "call %s/%d -> built-in", n.Name, len(n.Args))
		return (&builtinCall{f: f, args: args, pos: pos}).eval
	}
	name := n.Name
	cp.note(pos, "call %s/%d -> unknown (XPST0017 at call time)", n.Name, len(n.Args))
	return func(c *evalCtx) (xdm.Sequence, error) {
		for _, ae := range args {
			if _, err := ae(c); err != nil {
				return nil, err
			}
		}
		return nil, &Error{Code: "XPST0017", Pos: pos,
			Msg: fmt.Sprintf("unknown function %s/%d", name, len(args))}
	}
}

// evalArgs evaluates a call's arguments, left to right, into the window w.
func evalArgs(c *evalCtx, args []compiledExpr, w []xdm.Sequence) error {
	for i, ae := range args {
		v, err := ae(c)
		if err != nil {
			return err
		}
		w[i] = v
	}
	return nil
}

// userCall is a call pre-bound to a user-declared function.
type userCall struct {
	fn   *compiledFunc
	args []compiledExpr
	pos  ast.Pos
}

// eval pushes the callee's frame, which doubles as the argument vector
// (params occupy its first slots), runs the call, and pops the frame on
// every return path.
func (u *userCall) eval(c *evalCtx) (xdm.Sequence, error) {
	frame, base := c.push(u.fn.frameSize)
	out, err := u.run(c, frame)
	c.pop(frame, base)
	return out, err
}

// run evaluates the arguments into frame, checks them, and runs the body
// with the callee's scope swapped into c: its frame, no focus, one level
// deeper. The caller's three are back in place before the body's error, if
// any, is looked at, so a try/catch around the call sees its own scope.
//
// An invariant function runs its body at most once per evaluation: the
// first call that succeeds keeps its result in the function's memo slot,
// and every later call hands that value out, shared like a variable's,
// after the same depth check and FuncCall event as the first. A call that
// fails keeps nothing, so the next one runs the body again.
func (u *userCall) run(c *evalCtx, frame []xdm.Sequence) (xdm.Sequence, error) {
	fn, pos := u.fn, u.pos
	if err := evalArgs(c, u.args, frame); err != nil {
		return nil, err
	}
	if c.depth+1 > c.opts.Limits.MaxDepth {
		return nil, &Error{Code: CodeDepth, Pos: pos,
			Msg: fmt.Sprintf("recursion depth limit (%d) exceeded calling %s", c.opts.Limits.MaxDepth, fn.name)}
	}
	for i := range fn.params {
		if !fn.params[i].Type.Matches(frame[i]) {
			return nil, &Error{Code: "XPTY0004", Pos: pos,
				Msg: fmt.Sprintf("argument %d of %s does not match %s", i+1, fn.name, fn.params[i].Type)}
		}
	}
	if c.tr != nil {
		c.tr.Emit(obs.Event{Kind: obs.FuncCall, Name: fn.name,
			Line: pos.Line, Col: pos.Col})
	}
	if fn.memo >= 0 && c.gset[fn.memo] {
		return c.globals[fn.memo], nil
	}
	savedFrame, savedFocus, savedDepth := c.frame, c.focus, c.depth
	c.frame, c.focus, c.depth = frame, focus{}, savedDepth+1
	out, err := fn.body(c)
	c.frame, c.focus, c.depth = savedFrame, savedFocus, savedDepth
	if err != nil {
		return nil, err
	}
	if !fn.ret.Matches(out) {
		return nil, &Error{Code: "XPTY0004", Pos: fn.declPos,
			Msg: fmt.Sprintf("result of %s does not match declared type %s", fn.name, fn.ret)}
	}
	if fn.memo >= 0 {
		c.globals[fn.memo], c.gset[fn.memo] = out, true
	}
	return out, nil
}

// builtinCall is a call pre-bound to a built-in.
type builtinCall struct {
	f    *funclib.Func
	args []compiledExpr
	pos  ast.Pos
}

// eval pushes the argument vector, calls the built-in, and pops the vector
// as soon as the call returns: no built-in keeps its argv (DESIGN §12).
func (b *builtinCall) eval(c *evalCtx) (xdm.Sequence, error) {
	argv, base := c.push(len(b.args))
	out, err := b.run(c, argv)
	c.pop(argv, base)
	return out, err
}

func (b *builtinCall) run(c *evalCtx, argv []xdm.Sequence) (xdm.Sequence, error) {
	if err := evalArgs(c, b.args, argv); err != nil {
		return nil, err
	}
	out, err := b.f.Call(c, argv)
	if err != nil {
		return nil, errAt(err, b.pos)
	}
	return out, nil
}
