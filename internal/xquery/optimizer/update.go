package optimizer

import (
	"lopsided/internal/xquery/ast"
)

// rewriteStmts rewrites the expression leaves of an update program's
// statements: every target/content/name expression runs through the same
// rewrite pipeline as a query body — constant folding, access-path planning
// for index-served targets, the works. Statements themselves are never
// reordered or eliminated: the pending-update-list semantics make their
// order observable (conflict detection), so only their expression leaves
// are fair game.
func (o *optimizer) rewriteStmts(stmts []ast.UpdateStmt) []ast.UpdateStmt {
	out := make([]ast.UpdateStmt, len(stmts))
	for i, s := range stmts {
		out[i] = o.rewriteStmt(s)
	}
	return out
}

func (o *optimizer) rewriteStmt(s ast.UpdateStmt) ast.UpdateStmt {
	switch n := s.(type) {
	case *ast.InsertStmt:
		return &ast.InsertStmt{P: n.P, Source: o.rewrite(n.Source),
			Placement: n.Placement, Target: o.rewrite(n.Target)}
	case *ast.DeleteStmt:
		return &ast.DeleteStmt{P: n.P, Target: o.rewrite(n.Target)}
	case *ast.ReplaceStmt:
		return &ast.ReplaceStmt{P: n.P, Target: o.rewrite(n.Target), Source: o.rewrite(n.Source)}
	case *ast.RenameStmt:
		return &ast.RenameStmt{P: n.P, Target: o.rewrite(n.Target), Name: o.rewrite(n.Name)}
	case *ast.ForStmt:
		out := &ast.ForStmt{P: n.P, Var: n.Var, In: o.rewrite(n.In)}
		o.bind(n.Var)
		if n.Where != nil {
			out.Where = o.rewrite(n.Where)
		}
		out.Body = o.rewriteStmts(n.Body)
		o.unbind(n.Var)
		return out
	case *ast.BlockStmt:
		return &ast.BlockStmt{P: n.P, Stmts: o.rewriteStmts(n.Stmts)}
	}
	return s
}
