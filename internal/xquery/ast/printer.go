package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders an expression as a compact S-expression, for diagnostics
// and optimizer tests. It is not XQuery syntax and is not parseable back;
// it exists so humans (and tests) can see what the optimizer did.
func Print(e Expr) string {
	return PrintAnnotated(e, nil)
}

// PrintAnnotated renders an expression like Print, but with a per-node
// annotation hook: after each printed expression whose annot(e) is
// non-empty, the annotation is appended as `::text`. EXPLAIN uses it to
// attach inferred static shapes to every plan node.
func PrintAnnotated(e Expr, annot func(Expr) string) string {
	p := &printer{annot: annot}
	p.expr(e)
	return p.b.String()
}

// PrintStmtAnnotated renders an update statement in the same compact
// S-expression style and with the same per-node annotation hook as
// PrintAnnotated (statements themselves carry no annotation; their embedded
// expressions do); EXPLAIN uses it to show the pending-update plan.
func PrintStmtAnnotated(s UpdateStmt, annot func(Expr) string) string {
	p := &printer{annot: annot}
	p.stmt(s)
	return p.b.String()
}

// printer walks the AST writing the S-expression, appending the annotation
// hook's text after every expression node.
type printer struct {
	b     strings.Builder
	annot func(Expr) string
}

func (p *printer) expr(e Expr) {
	p.exprBare(e)
	if p.annot != nil && e != nil {
		if s := p.annot(e); s != "" {
			p.b.WriteString("::" + s)
		}
	}
}

func (p *printer) exprBare(e Expr) {
	b := &p.b
	switch n := e.(type) {
	case nil:
		b.WriteString("()")
	case *StringLit:
		b.WriteString(strconv.Quote(n.Value))
	case *IntLit:
		fmt.Fprintf(b, "%d", n.Value)
	case *DecimalLit:
		fmt.Fprintf(b, "%g", n.Value)
	case *DoubleLit:
		fmt.Fprintf(b, "%gE0", n.Value)
	case *VarRef:
		b.WriteString("$" + n.Name)
	case *ContextItem:
		b.WriteString(".")
	case *EmptySeq:
		b.WriteString("()")
	case *SequenceExpr:
		p.list("seq", n.Items...)
	case *RangeExpr:
		p.list("to", n.Lo, n.Hi)
	case *Binary:
		p.list(binOpName(n), n.L, n.R)
	case *Unary:
		op := "+u"
		if n.Minus {
			op = "-u"
		}
		p.list(op, n.Operand)
	case *IfExpr:
		p.list("if", n.Cond, n.Then, n.Else)
	case *FLWOR:
		b.WriteString("(flwor")
		for _, cl := range n.Clauses {
			switch c := cl.(type) {
			case ForClause:
				b.WriteString(" (for $" + c.Var)
				if c.PosVar != "" {
					b.WriteString(" at $" + c.PosVar)
				}
				b.WriteString(" in ")
				p.expr(c.In)
				b.WriteString(")")
			case LetClause:
				b.WriteString(" (let $" + c.Var + " := ")
				p.expr(c.Val)
				b.WriteString(")")
			}
		}
		if n.Where != nil {
			b.WriteString(" (where ")
			p.expr(n.Where)
			b.WriteString(")")
		}
		for _, spec := range n.OrderBy {
			b.WriteString(" (order ")
			p.expr(spec.Key)
			if spec.Descending {
				b.WriteString(" desc")
			}
			b.WriteString(")")
		}
		b.WriteString(" (return ")
		p.expr(n.Return)
		b.WriteString("))")
	case *Quantified:
		kw := "some"
		if n.Every {
			kw = "every"
		}
		b.WriteString("(" + kw)
		for _, v := range n.Vars {
			b.WriteString(" ($" + v.Var + " in ")
			p.expr(v.In)
			b.WriteString(")")
		}
		b.WriteString(" satisfies ")
		p.expr(n.Satisfy)
		b.WriteString(")")
	case *Typeswitch:
		b.WriteString("(typeswitch ")
		p.expr(n.Operand)
		for _, cs := range n.Cases {
			fmt.Fprintf(b, " (case %s ", cs.Type)
			p.expr(cs.Ret)
			b.WriteString(")")
		}
		b.WriteString(" (default ")
		p.expr(n.Default)
		b.WriteString("))")
	case *PathExpr:
		b.WriteString("(path")
		switch n.Root {
		case RootSlash:
			b.WriteString(" /")
		case RootSlashSlash:
			b.WriteString(" //")
		}
		for _, s := range n.Steps {
			b.WriteString(" ")
			p.step(s)
		}
		b.WriteString(")")
	case *FunctionCall:
		p.list("call "+n.Name, n.Args...)
	case *InstanceOf:
		b.WriteString("(instance-of ")
		p.expr(n.Operand)
		fmt.Fprintf(b, " %s)", n.Type)
	case *TreatAs:
		b.WriteString("(treat ")
		p.expr(n.Operand)
		fmt.Fprintf(b, " %s)", n.Type)
	case *CastAs:
		b.WriteString("(cast ")
		p.expr(n.Operand)
		fmt.Fprintf(b, " %s)", n.TypeName)
	case *CastableAs:
		b.WriteString("(castable ")
		p.expr(n.Operand)
		fmt.Fprintf(b, " %s)", n.TypeName)
	case *TryCatch:
		b.WriteString("(try ")
		p.expr(n.Try)
		b.WriteString(" catch")
		if n.CatchCodeVar != "" {
			b.WriteString(" $" + n.CatchCodeVar)
		}
		if n.CatchVar != "" {
			b.WriteString(" $" + n.CatchVar)
		}
		b.WriteString(" ")
		p.expr(n.Catch)
		b.WriteString(")")
	case *DirElem:
		fmt.Fprintf(b, "(elem %s", n.Name)
		for _, a := range n.Attrs {
			fmt.Fprintf(b, " (@%s", a.Name)
			for _, pt := range a.Parts {
				b.WriteString(" ")
				p.expr(pt)
			}
			b.WriteString(")")
		}
		for _, c := range n.Content {
			b.WriteString(" ")
			p.expr(c)
		}
		b.WriteString(")")
	case *DirComment:
		fmt.Fprintf(b, "(comment %q)", n.Data)
	case *DirPI:
		fmt.Fprintf(b, "(pi %s %q)", n.Target, n.Data)
	case *CompElem:
		b.WriteString("(celem ")
		if n.Name != "" {
			b.WriteString(n.Name)
		} else {
			p.expr(n.NameExpr)
		}
		b.WriteString(" ")
		p.expr(n.Content)
		b.WriteString(")")
	case *CompAttr:
		b.WriteString("(cattr ")
		if n.Name != "" {
			b.WriteString(n.Name)
		} else {
			p.expr(n.NameExpr)
		}
		b.WriteString(" ")
		p.expr(n.Content)
		b.WriteString(")")
	case *CompText:
		p.list("ctext", n.Content)
	case *CompComment:
		p.list("ccomment", n.Content)
	case *CompDoc:
		p.list("cdoc", n.Content)
	case *CompPI:
		p.list("cpi "+n.Target, n.Content)
	default:
		fmt.Fprintf(b, "(?%T)", e)
	}
}

func (p *printer) stmt(s UpdateStmt) {
	b := &p.b
	switch n := s.(type) {
	case *InsertStmt:
		fmt.Fprintf(b, "(insert ")
		p.expr(n.Source)
		fmt.Fprintf(b, " %s ", n.Placement)
		p.expr(n.Target)
		b.WriteString(")")
	case *DeleteStmt:
		p.list("delete", n.Target)
	case *ReplaceStmt:
		b.WriteString("(replace ")
		p.expr(n.Target)
		b.WriteString(" with ")
		p.expr(n.Source)
		b.WriteString(")")
	case *RenameStmt:
		b.WriteString("(rename ")
		p.expr(n.Target)
		b.WriteString(" as ")
		p.expr(n.Name)
		b.WriteString(")")
	case *ForStmt:
		b.WriteString("(for-each $" + n.Var + " in ")
		p.expr(n.In)
		if n.Where != nil {
			b.WriteString(" (where ")
			p.expr(n.Where)
			b.WriteString(")")
		}
		b.WriteString(" (do")
		for _, st := range n.Body {
			b.WriteString(" ")
			p.stmt(st)
		}
		b.WriteString("))")
	case *BlockStmt:
		b.WriteString("(block")
		for _, st := range n.Stmts {
			b.WriteString(" ")
			p.stmt(st)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "(?%T)", s)
	}
}

func (p *printer) list(head string, items ...Expr) {
	p.b.WriteString("(" + head)
	for _, it := range items {
		p.b.WriteString(" ")
		p.expr(it)
	}
	p.b.WriteString(")")
}

func (p *printer) step(s Step) {
	b := &p.b
	if s.Primary != nil {
		b.WriteString("(filter ")
		p.expr(s.Primary)
	} else {
		fmt.Fprintf(b, "(%s::", s.Axis)
		if s.Test.Kind != nil {
			b.WriteString(s.Test.Kind.String())
		} else {
			b.WriteString(s.Test.Name)
		}
	}
	for _, pr := range s.Preds {
		b.WriteString(" [")
		p.expr(pr)
		b.WriteString("]")
	}
	b.WriteString(")")
}

func binOpName(n *Binary) string {
	switch n.Kind {
	case OpOr:
		return "or"
	case OpAnd:
		return "and"
	case OpGeneralComp:
		return "gc:" + cmpSym(n)
	case OpValueComp:
		return "vc:" + n.Cmp.String()
	case OpNodeIs:
		return "is"
	case OpNodeBefore:
		return "<<"
	case OpNodeAfter:
		return ">>"
	case OpArith:
		return n.Arith.String()
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpExcept:
		return "except"
	}
	return "?"
}

func cmpSym(n *Binary) string {
	syms := []string{"=", "!=", "<", "<=", ">", ">="}
	if int(n.Cmp) < len(syms) {
		return syms[n.Cmp]
	}
	return "?"
}
