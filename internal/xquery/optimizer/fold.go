package optimizer

import (
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
)

// foldBinary folds integer arithmetic and integer/string value comparisons
// over literals. Division is never folded (it could raise FOAR0001 and the
// optimizer must not hide runtime errors it cannot prove away).
func (o *optimizer) foldBinary(n *ast.Binary) ast.Expr {
	switch n.Kind {
	case ast.OpArith:
		li, lok := n.L.(*ast.IntLit)
		ri, rok := n.R.(*ast.IntLit)
		if !lok || !rok {
			return n
		}
		switch n.Arith {
		case xdm.OpAdd:
			o.stats.FoldedConstants++
			return &ast.IntLit{Base: n.Base, Value: li.Value + ri.Value}
		case xdm.OpSub:
			o.stats.FoldedConstants++
			return &ast.IntLit{Base: n.Base, Value: li.Value - ri.Value}
		case xdm.OpMul:
			o.stats.FoldedConstants++
			return &ast.IntLit{Base: n.Base, Value: li.Value * ri.Value}
		}
		return n
	case ast.OpValueComp, ast.OpGeneralComp:
		// The folded form is spelled true()/false(); if the module declares
		// functions of those names the spelling would resolve to them, so
		// don't fold.
		if o.userFuncs["true"] || o.userFuncs["false"] {
			return n
		}
		la, lok := literalAtom(n.L)
		ra, rok := literalAtom(n.R)
		if !lok || !rok {
			return n
		}
		holds, err := xdm.CompareValue(la, ra, n.Cmp)
		if err != nil {
			return n
		}
		o.stats.FoldedConstants++
		return boolCall(n.Base, holds)
	}
	return n
}

// foldCall folds concat over string literals. The fold must not change
// dispatch or arity checking: a user-declared concat wins over the builtin,
// and fn:concat requires at least two arguments (fewer is XPST0017 at
// runtime), so those calls are left for the runtime to reject.
func (o *optimizer) foldCall(n *ast.FunctionCall) ast.Expr {
	if n.Name != "concat" && n.Name != "fn:concat" {
		return n
	}
	if o.userFuncs[n.Name] || len(n.Args) < 2 {
		return n
	}
	var b strings.Builder
	for _, a := range n.Args {
		lit, ok := a.(*ast.StringLit)
		if !ok {
			return n
		}
		b.WriteString(lit.Value)
	}
	o.stats.FoldedConstants++
	return &ast.StringLit{Base: n.Base, Value: b.String()}
}

// literalAtom extracts an atomic value from a literal expression.
func literalAtom(e ast.Expr) (xdm.Item, bool) {
	switch n := e.(type) {
	case *ast.IntLit:
		return xdm.Integer(n.Value), true
	case *ast.StringLit:
		return xdm.String(n.Value), true
	case *ast.DecimalLit:
		return xdm.Decimal(n.Value), true
	case *ast.DoubleLit:
		return xdm.Double(n.Value), true
	}
	return nil, false
}

// literalEBV computes the effective boolean value of a literal condition.
// true()/false() calls only count as constants when the module does not
// shadow them with user declarations.
func (o *optimizer) literalEBV(e ast.Expr) (value, known bool) {
	switch n := e.(type) {
	case *ast.IntLit:
		return n.Value != 0, true
	case *ast.StringLit:
		return n.Value != "", true
	case *ast.EmptySeq:
		return false, true
	case *ast.FunctionCall:
		if len(n.Args) == 0 && !o.userFuncs[n.Name] {
			switch n.Name {
			case "true", "fn:true":
				return true, true
			case "false", "fn:false":
				return false, true
			}
		}
	}
	return false, false
}

// boolCall builds a true()/false() call, the AST's spelling of a boolean
// constant.
func boolCall(b ast.Base, v bool) ast.Expr {
	name := "false"
	if v {
		name = "true"
	}
	return &ast.FunctionCall{Base: b, Name: name}
}

// usesVar reports whether e references variable $name.
func usesVar(e ast.Expr, name string) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if v, ok := x.(*ast.VarRef); ok && v.Name == name {
			found = true
		}
		return !found
	})
	return found
}
