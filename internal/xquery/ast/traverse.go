package ast

// This file is the one place that says which fields of which expression
// node hold subexpressions. Every pass that only needs "the children" —
// the optimizer's generic rewrite and its variable/trace scans, the
// projection pre-scan and its use-everything arm — goes through Children,
// Walk or MapChildren; a new node type or child field is registered in the
// two switches below and nowhere else (traverse_test.go checks both against
// the struct definitions by reflection).

// Children calls visit on each direct subexpression of e in source order,
// skipping absent (nil) optional children. It allocates nothing.
func Children(e Expr, visit func(Expr)) {
	each := func(xs ...Expr) {
		for _, x := range xs {
			if x != nil {
				visit(x)
			}
		}
	}
	switch n := e.(type) {
	case *SequenceExpr:
		each(n.Items...)
	case *RangeExpr:
		each(n.Lo, n.Hi)
	case *Binary:
		each(n.L, n.R)
	case *Unary:
		each(n.Operand)
	case *PathExpr:
		for i := range n.Steps {
			each(n.Steps[i].Primary)
			each(n.Steps[i].Preds...)
		}
	case *FLWOR:
		for _, cl := range n.Clauses {
			switch c := cl.(type) {
			case ForClause:
				each(c.In)
			case LetClause:
				each(c.Val)
			}
		}
		each(n.Where)
		for _, spec := range n.OrderBy {
			each(spec.Key)
		}
		each(n.Return)
	case *Quantified:
		for _, v := range n.Vars {
			each(v.In)
		}
		each(n.Satisfy)
	case *IfExpr:
		each(n.Cond, n.Then, n.Else)
	case *Typeswitch:
		each(n.Operand)
		for _, cs := range n.Cases {
			each(cs.Ret)
		}
		each(n.Default)
	case *FunctionCall:
		each(n.Args...)
	case *InstanceOf:
		each(n.Operand)
	case *CastableAs:
		each(n.Operand)
	case *CastAs:
		each(n.Operand)
	case *TryCatch:
		each(n.Try, n.Catch)
	case *TreatAs:
		each(n.Operand)
	case *DirElem:
		for _, a := range n.Attrs {
			each(a.Parts...)
		}
		each(n.Content...)
	case *CompElem:
		each(n.NameExpr, n.Content)
	case *CompAttr:
		each(n.NameExpr, n.Content)
	case *CompText:
		each(n.Content)
	case *CompComment:
		each(n.Content)
	case *CompPI:
		each(n.Content)
	case *CompDoc:
		each(n.Content)
	}
}

// Walk visits e and then, unless f returns false for it, every
// subexpression, depth-first in source order.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	Children(e, func(c Expr) { Walk(c, f) })
}

// MapChildren returns a shallow copy of e whose direct subexpressions are
// f(child), called in source order; absent optional children stay absent.
// Nodes without subexpression fields (literals, references, the context
// item, direct comments and PIs) are returned as they are. Everything that
// is not a child — names, types, a step's axis, test and access path — is
// carried over unchanged.
func MapChildren(e Expr, f func(Expr) Expr) Expr {
	one := func(x Expr) Expr {
		if x == nil {
			return nil
		}
		return f(x)
	}
	all := func(xs []Expr) []Expr {
		if xs == nil {
			return nil
		}
		out := make([]Expr, len(xs))
		for i, x := range xs {
			out[i] = one(x)
		}
		return out
	}
	switch n := e.(type) {
	case *SequenceExpr:
		c := *n
		c.Items = all(n.Items)
		return &c
	case *RangeExpr:
		c := *n
		c.Lo, c.Hi = one(n.Lo), one(n.Hi)
		return &c
	case *Binary:
		c := *n
		c.L, c.R = one(n.L), one(n.R)
		return &c
	case *Unary:
		c := *n
		c.Operand = one(n.Operand)
		return &c
	case *PathExpr:
		c := *n
		c.Steps = make([]Step, len(n.Steps))
		for i, s := range n.Steps {
			s.Primary, s.Preds = one(s.Primary), all(s.Preds)
			c.Steps[i] = s
		}
		return &c
	case *FLWOR:
		c := *n
		c.Clauses = make([]FLWORClause, len(n.Clauses))
		for i, cl := range n.Clauses {
			switch cl := cl.(type) {
			case ForClause:
				cl.In = one(cl.In)
				c.Clauses[i] = cl
			case LetClause:
				cl.Val = one(cl.Val)
				c.Clauses[i] = cl
			}
		}
		c.Where = one(n.Where)
		c.OrderBy = nil
		for _, spec := range n.OrderBy {
			spec.Key = one(spec.Key)
			c.OrderBy = append(c.OrderBy, spec)
		}
		c.Return = one(n.Return)
		return &c
	case *Quantified:
		c := *n
		c.Vars = make([]ForClause, len(n.Vars))
		for i, v := range n.Vars {
			v.In = one(v.In)
			c.Vars[i] = v
		}
		c.Satisfy = one(n.Satisfy)
		return &c
	case *IfExpr:
		c := *n
		c.Cond, c.Then, c.Else = one(n.Cond), one(n.Then), one(n.Else)
		return &c
	case *Typeswitch:
		c := *n
		c.Operand = one(n.Operand)
		c.Cases = make([]TypeswitchCase, len(n.Cases))
		for i, cs := range n.Cases {
			cs.Ret = one(cs.Ret)
			c.Cases[i] = cs
		}
		c.Default = one(n.Default)
		return &c
	case *FunctionCall:
		c := *n
		c.Args = all(n.Args)
		return &c
	case *InstanceOf:
		c := *n
		c.Operand = one(n.Operand)
		return &c
	case *CastableAs:
		c := *n
		c.Operand = one(n.Operand)
		return &c
	case *CastAs:
		c := *n
		c.Operand = one(n.Operand)
		return &c
	case *TryCatch:
		c := *n
		c.Try, c.Catch = one(n.Try), one(n.Catch)
		return &c
	case *TreatAs:
		c := *n
		c.Operand = one(n.Operand)
		return &c
	case *DirElem:
		c := *n
		c.Attrs = make([]DirAttr, len(n.Attrs))
		for i, a := range n.Attrs {
			a.Parts = all(a.Parts)
			c.Attrs[i] = a
		}
		c.Content = all(n.Content)
		return &c
	case *CompElem:
		c := *n
		c.NameExpr, c.Content = one(n.NameExpr), one(n.Content)
		return &c
	case *CompAttr:
		c := *n
		c.NameExpr, c.Content = one(n.NameExpr), one(n.Content)
		return &c
	case *CompText:
		c := *n
		c.Content = one(n.Content)
		return &c
	case *CompComment:
		c := *n
		c.Content = one(n.Content)
		return &c
	case *CompPI:
		c := *n
		c.Content = one(n.Content)
		return &c
	case *CompDoc:
		c := *n
		c.Content = one(n.Content)
		return &c
	}
	return e
}
