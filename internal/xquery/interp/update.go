package interp

// update.go is the compile + runtime layer for the FLUX-style update
// sublanguage. An update program compiles through the same two-stage engine
// as a query — the shared prolog machinery gives statements access to user
// functions and global variables, and every target/content expression is an
// ordinary closure-compiled expression — but instead of producing a value,
// each statement appends entries to a pending-update list (PUL).
//
// Execution is snapshot semantics: every statement evaluates against the
// UNCHANGED input tree (statements never see each other's effects), and the
// whole PUL is applied in one pass by xmltree.ApplyUpdates against a single
// lazy copy-on-write clone. Only the spine from the root to each touched
// node is materialized; the result comes back frozen, so indexes memoized
// on either snapshot stay valid by construction.
//
// Error codes follow the XQuery Update Facility families:
//
//	XUTY0004  attribute content in an illegal position
//	XUTY0005  insert-into target is not an element or document
//	XUTY0006  insert before/after target has no parent or is an attribute
//	XUTY0007  delete target sequence contains a non-node
//	XUTY0008  replace target is invalid (root, or content kind mismatch)
//	XUTY0012  rename target is not an element, attribute or PI
//	XUDY0015  two renames target the same node
//	XUDY0016  two replaces target the same node
//	XUDY0027  target is empty, more than one node, or not in the tree

import (
	"context"
	"errors"
	"fmt"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
)

// compiledStmt is the runtime form of one update statement: evaluate its
// expressions against the snapshot and append pending updates.
type compiledStmt func(*evalCtx, *pulState) error

// pulState accumulates the pending-update list of one Transform call.
type pulState struct {
	// root is the source tree every target must belong to.
	root *xmltree.Node
	ups  []xmltree.Update
}

// compileStmt lowers one update statement into its closure form.
func (cp *compiler) compileStmt(s ast.UpdateStmt) compiledStmt {
	switch n := s.(type) {
	case *ast.InsertStmt:
		return cp.compileInsert(n)
	case *ast.DeleteStmt:
		return cp.compileDelete(n)
	case *ast.ReplaceStmt:
		return cp.compileReplace(n)
	case *ast.RenameStmt:
		return cp.compileRename(n)
	case *ast.ForStmt:
		return cp.compileForStmt(n)
	case *ast.BlockStmt:
		body := make([]compiledStmt, len(n.Stmts))
		for i, st := range n.Stmts {
			body[i] = cp.compileStmt(st)
		}
		return func(c *evalCtx, pul *pulState) error {
			for _, st := range body {
				if err := st(c, pul); err != nil {
					return err
				}
			}
			return nil
		}
	}
	pos := s.Pos()
	return func(*evalCtx, *pulState) error {
		return &Error{Code: "XPST0003", Pos: pos, Msg: fmt.Sprintf("unsupported update statement %T", s)}
	}
}

func (cp *compiler) compileInsert(n *ast.InsertStmt) compiledStmt {
	src := cp.compile(n.Source)
	tgt := cp.compile(n.Target)
	placement, pos := n.Placement, n.P
	return func(c *evalCtx, pul *pulState) error {
		target, err := evalTarget(c, tgt, pul, pos, "insert "+placement.String())
		if err != nil {
			return err
		}
		sv, err := src(c)
		if err != nil {
			return err
		}
		intoElem := placement == ast.InsertInto && target.Kind == xmltree.ElementNode
		attrs, content, err := c.updateContent(sv, pos, intoElem)
		if err != nil {
			return err
		}
		switch placement {
		case ast.InsertInto:
			if target.Kind != xmltree.ElementNode && target.Kind != xmltree.DocumentNode {
				return &Error{Code: "XUTY0005", Pos: pos,
					Msg: fmt.Sprintf("insert into target is a %v, not an element or document", target.Kind)}
			}
			pul.ups = append(pul.ups, xmltree.Update{Op: xmltree.UpdInsertInto,
				Target: target, Content: content, Attrs: attrs})
		default:
			if target.Kind == xmltree.AttributeNode {
				return &Error{Code: "XUTY0006", Pos: pos,
					Msg: fmt.Sprintf("cannot insert %s an attribute node", placement)}
			}
			if target.Parent == nil {
				return &Error{Code: "XUTY0006", Pos: pos,
					Msg: fmt.Sprintf("insert %s target has no parent (it is the root)", placement)}
			}
			op := xmltree.UpdInsertBefore
			if placement == ast.InsertAfter {
				op = xmltree.UpdInsertAfter
			}
			pul.ups = append(pul.ups, xmltree.Update{Op: op, Target: target, Content: content})
		}
		return nil
	}
}

func (cp *compiler) compileDelete(n *ast.DeleteStmt) compiledStmt {
	tgt := cp.compile(n.Target)
	pos := n.P
	return func(c *evalCtx, pul *pulState) error {
		tv, err := tgt(c)
		if err != nil {
			return err
		}
		// Deleting the empty sequence is a no-op, not an error: `delete
		// //stale` on a clean document should succeed.
		for _, it := range tv {
			node, ok := xdm.IsNode(it)
			if !ok {
				return &Error{Code: "XUTY0007", Pos: pos,
					Msg: fmt.Sprintf("delete target contains a non-node item %q", it.StringValue())}
			}
			if node.Root() != pul.root {
				return &Error{Code: "XUDY0027", Pos: pos,
					Msg: "delete target is not in the tree being transformed"}
			}
			if node.Parent == nil {
				// Parentless (root) targets are ignored, XQUF-style.
				continue
			}
			pul.ups = append(pul.ups, xmltree.Update{Op: xmltree.UpdDelete, Target: node})
		}
		return nil
	}
}

func (cp *compiler) compileReplace(n *ast.ReplaceStmt) compiledStmt {
	tgt := cp.compile(n.Target)
	src := cp.compile(n.Source)
	pos := n.P
	return func(c *evalCtx, pul *pulState) error {
		target, err := evalTarget(c, tgt, pul, pos, "replace")
		if err != nil {
			return err
		}
		if target.Parent == nil {
			return &Error{Code: "XUTY0008", Pos: pos, Msg: "cannot replace the root of the tree"}
		}
		sv, err := src(c)
		if err != nil {
			return err
		}
		if target.Kind == xmltree.AttributeNode {
			attrs, content, err := c.updateContent(sv, pos, true)
			if err != nil {
				return err
			}
			if len(content) > 0 {
				return &Error{Code: "XUTY0008", Pos: pos,
					Msg: "replacing an attribute requires attribute content"}
			}
			pul.ups = append(pul.ups, xmltree.Update{Op: xmltree.UpdReplace, Target: target, Attrs: attrs})
			return nil
		}
		_, content, err := c.updateContent(sv, pos, false)
		if err != nil {
			return err
		}
		pul.ups = append(pul.ups, xmltree.Update{Op: xmltree.UpdReplace, Target: target, Content: content})
		return nil
	}
}

func (cp *compiler) compileRename(n *ast.RenameStmt) compiledStmt {
	tgt := cp.compile(n.Target)
	nameExpr := cp.compile(n.Name)
	pos := n.P
	return func(c *evalCtx, pul *pulState) error {
		target, err := evalTarget(c, tgt, pul, pos, "rename")
		if err != nil {
			return err
		}
		switch target.Kind {
		case xmltree.ElementNode, xmltree.AttributeNode, xmltree.PINode:
		default:
			return &Error{Code: "XUTY0012", Pos: pos,
				Msg: fmt.Sprintf("rename target is a %v, not an element, attribute or processing instruction", target.Kind)}
		}
		name, err := constructorName(c, "", nameExpr, pos)
		if err != nil {
			return err
		}
		pul.ups = append(pul.ups, xmltree.Update{Op: xmltree.UpdRename, Target: target, Name: name})
		return nil
	}
}

func (cp *compiler) compileForStmt(n *ast.ForStmt) compiledStmt {
	in := cp.compile(n.In)
	slot := cp.bindLocal(n.Var)
	var where compiledExpr
	if n.Where != nil {
		where = cp.compile(n.Where)
	}
	body := make([]compiledStmt, len(n.Body))
	for i, st := range n.Body {
		body[i] = cp.compileStmt(st)
	}
	cp.popLocals(1)
	pos := n.P
	return func(c *evalCtx, pul *pulState) error {
		seq, err := in(c)
		if err != nil {
			return err
		}
		for _, it := range seq {
			c.frame[slot] = xdm.Singleton(it)
			if where != nil {
				wv, err := where(c)
				if err != nil {
					return err
				}
				ok, err := effectiveBool(wv, pos)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			for _, st := range body {
				if err := st(c, pul); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// evalTarget evaluates a single-node target expression: an empty sequence,
// more than one item, a non-node item, or a node outside the context tree
// all raise XUDY0027. Kind checks are the caller's.
func evalTarget(c *evalCtx, tgt compiledExpr, pul *pulState, pos ast.Pos, what string) (*xmltree.Node, error) {
	tv, err := tgt(c)
	if err != nil {
		return nil, err
	}
	if tv.IsEmpty() {
		return nil, &Error{Code: "XUDY0027", Pos: pos, Msg: what + " target is an empty sequence"}
	}
	if len(tv) > 1 {
		return nil, &Error{Code: "XUDY0027", Pos: pos,
			Msg: fmt.Sprintf("%s target is a sequence of %d items, not a single node", what, len(tv))}
	}
	node, ok := xdm.IsNode(tv[0])
	if !ok {
		return nil, &Error{Code: "XUDY0027", Pos: pos,
			Msg: fmt.Sprintf("%s target is an atomic value, not a node", what)}
	}
	if node.Root() != pul.root {
		return nil, &Error{Code: "XUDY0027", Pos: pos,
			Msg: what + " target is not in the tree being transformed"}
	}
	return node, nil
}

// updateContent converts a content sequence into parentless attribute and
// content nodes for the PUL, by the element-content rule (construct.go's
// contentBuilder). Attribute nodes are legal only in leading positions and
// only when allowAttrs is true (insert-into an element, replace of an
// attribute); anywhere else they raise XUTY0004.
func (c *evalCtx) updateContent(v xdm.Sequence, pos ast.Pos, allowAttrs bool) (attrs, content []*xmltree.Node, err error) {
	b := contentBuilder{c: c, pos: pos, allowAttrs: allowAttrs}
	if err := b.seq(v); err != nil {
		return nil, nil, err
	}
	return b.attrs, b.nodes, nil
}

// Transform executes an update program against root: evaluates every
// statement against the unchanged snapshot, then applies the collected
// pending-update list in one pass. It returns the transformed tree as a new
// frozen root — root itself is frozen, never mutated, and stays valid.
//
// When eager is true the logical copy is a full deep copy (the reference
// implementation the differential harness compares the COW path against).
//
// Transform runs under the same prologue as EvalWithOpts (see evaluate);
// eo.Stats additionally reports what ApplyUpdates did.
func (ip *Interp) Transform(ctx context.Context, root *xmltree.Node, vars map[string]xdm.Sequence, eo EvalOpts, eager bool) (*xmltree.Node, error) {
	if root == nil {
		// Refused before the prologue runs, but reported like any failed
		// evaluation: a reused stats struct must not keep the last run's
		// numbers.
		if eo.Stats != nil {
			ip.fillStats(eo.Stats, nil, 0)
		}
		return nil, &Error{Code: "XPDY0002", Msg: "Transform needs a context tree to update"}
	}
	var out *xmltree.Node
	var applied xmltree.ApplyStats
	_, err := ip.evaluate(ctx, xdm.NewNode(root), vars, eo, func(c *evalCtx) (xdm.Sequence, error) {
		pul := &pulState{root: root}
		for _, stmt := range ip.prog.stmts {
			if err := stmt(c, pul); err != nil {
				return nil, err
			}
		}
		newRoot, st, err := xmltree.ApplyUpdates(root, pul.ups, eager)
		if err != nil {
			return nil, mapApplyErr(err)
		}
		out, applied = newRoot, st
		return nil, nil
	})
	if eo.Stats != nil {
		eo.Stats.UpdatesApplied = applied.Applied
		eo.Stats.SpineNodes = applied.SpineNodes
	}
	return out, err
}

// mapApplyErr converts xmltree's structural sentinels into coded errors.
// Most structural problems are caught with positions at collection time;
// only whole-PUL conflicts genuinely originate here.
func mapApplyErr(err error) error {
	switch {
	case errors.Is(err, xmltree.ErrReplaceConflict):
		return &Error{Code: "XUDY0016", Msg: err.Error()}
	case errors.Is(err, xmltree.ErrRenameConflict):
		return &Error{Code: "XUDY0015", Msg: err.Error()}
	case errors.Is(err, xmltree.ErrTargetNotInTree):
		return &Error{Code: "XUDY0027", Msg: err.Error()}
	case errors.Is(err, xmltree.ErrTargetIsRoot):
		return &Error{Code: "XUTY0008", Msg: err.Error()}
	}
	return err
}
