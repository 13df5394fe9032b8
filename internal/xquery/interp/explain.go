package interp

// explain.go renders the compiled plan for humans: the EXPLAIN mode behind
// `xqrun -explain` and `awbquery -explain`. The dump shows exactly what the
// compile layer decided — global/local slot assignments, pre-bound dispatch,
// FLWOR clause shapes, and the fn:trace sites dead-code elimination removed
// — so "why is my query slow/silent" is answerable without reading engine
// source, which is the paper's C2 complaint about Galax-era tooling.

import (
	"fmt"
	"sort"
	"strings"

	"lopsided/internal/xquery/ast"
)

// Explain pretty-prints the compiled plan: global slots, user functions
// with their frame sizes, prolog steps, compile-time plan notes in source
// order, optimizer-elided trace sites, and the (optimized) body as an
// S-expression.
func (p *Program) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: frame=%d slots, globals=%d\n", p.frameSize, len(p.globalNames))

	if len(p.globalNames) > 0 {
		b.WriteString("globals:\n")
		for slot, name := range p.globalNames {
			fmt.Fprintf(&b, "  g%-3d $%s\n", slot, name)
		}
	}

	if len(p.funcs) > 0 {
		b.WriteString("functions:\n")
		var fns []*compiledFunc
		for _, byArity := range p.funcs {
			for _, fn := range byArity {
				fns = append(fns, fn)
			}
		}
		sort.Slice(fns, func(i, j int) bool {
			if fns[i].name != fns[j].name {
				return fns[i].name < fns[j].name
			}
			return len(fns[i].params) < len(fns[j].params)
		})
		for _, fn := range fns {
			params := make([]string, len(fn.params))
			for i, prm := range fn.params {
				params[i] = "$" + prm.Name
			}
			fmt.Fprintf(&b, "  %s(%s) frame=%d declared at %d:%d\n",
				fn.name, strings.Join(params, ", "), fn.frameSize, fn.declPos.Line, fn.declPos.Col)
		}
	}

	if len(p.prolog) > 0 {
		b.WriteString("prolog:\n")
		for _, st := range p.prolog {
			kind := "init"
			if st.init == nil {
				kind = "external"
			}
			fmt.Fprintf(&b, "  g%-3d $%s (%s)\n", st.slot, st.name, kind)
		}
	}

	if len(p.elided) > 0 {
		b.WriteString("elided traces (removed by dead-code elimination):\n")
		for _, et := range p.elided {
			fmt.Fprintf(&b, "  %d:%d trace(%s)\n", et.P.Line, et.P.Col, strings.Join(et.Values, ", "))
		}
	}

	if notes := p.Notes(); len(notes) > 0 {
		b.WriteString("notes:\n")
		for _, n := range notes {
			fmt.Fprintf(&b, "  %d:%d %s\n", n.Pos.Line, n.Pos.Col, n.Text)
		}
	}

	// Shape annotation hook: with a static analysis attached, every plan
	// node the inference visited prints its shape as `::{occ type facts}`.
	var annot func(ast.Expr) string
	if p.shapes != nil {
		annot = func(e ast.Expr) string {
			if sh, ok := p.shapes.Of(e); ok {
				return sh.String()
			}
			return ""
		}
		if body := p.mod.Body; body != nil {
			if sh, ok := p.shapes.Of(body); ok {
				fmt.Fprintf(&b, "shapes: result %s\n", sh)
			}
		}
		if len(p.shapes.Warnings) > 0 {
			b.WriteString("shape warnings:\n")
			for _, w := range p.shapes.Warnings {
				fmt.Fprintf(&b, "  %d:%d %s %s\n", w.P.Line, w.P.Col, w.Code, w.Msg)
			}
		}
	}

	if p.IsUpdate() {
		b.WriteString("pending-update plan:\n")
		for i, s := range p.mod.Stmts {
			fmt.Fprintf(&b, "  u%-3d %s\n", i, ast.PrintStmtAnnotated(s, annot))
		}
		return b.String()
	}
	b.WriteString("body:\n")
	b.WriteString(indent(ast.PrintAnnotated(p.mod.Body, annot), "  "))
	if !strings.HasSuffix(b.String(), "\n") {
		b.WriteString("\n")
	}
	return b.String()
}

// indent prefixes every line of s with pad.
func indent(s, pad string) string {
	lines := strings.Split(s, "\n")
	for i, ln := range lines {
		if ln != "" {
			lines[i] = pad + ln
		}
	}
	return strings.Join(lines, "\n")
}
