package xmltree

// update.go applies a pending-update list (PUL) to a tree in one pass over
// one logical copy. The caller (the XQuery update runtime) evaluates every
// target and content expression against the unchanged source snapshot,
// collects the resulting updates, and hands the whole list to ApplyUpdates,
// which:
//
//   - takes one lazy Clone of the root (freezing the source subtree — the
//     pre-update snapshot stays valid, and any index memoized on it stays
//     correct by construction);
//   - maps each target node to its child-index path in the source and
//     navigates the clone along exactly those paths, so only the spine from
//     the root to each touched node is materialized — everything off the
//     spines stays shared with the source;
//   - rebuilds each touched parent's child list once, applying inserts,
//     replaces and deletes together (index shifts from earlier updates can
//     never corrupt later ones, because positions are the source's);
//   - freezes the new root before returning it, so it is immediately
//     IndexCacheable and safe to share.
//
// This is the FLUX-style answer to the paper's C2 complaint: where the
// five-phase pipeline paid a full document copy per phase, a compiled
// update program pays one logical copy for any number of updates.

import (
	"errors"
	"fmt"
)

// UpdateOp is the kind of one pending update.
type UpdateOp int

// Update operations, in the order the sublanguage spells them.
const (
	// UpdInsertInto appends content (and folds attribute content) into the
	// target element.
	UpdInsertInto UpdateOp = iota
	// UpdInsertBefore inserts content as preceding siblings of the target.
	UpdInsertBefore
	// UpdInsertAfter inserts content as following siblings of the target.
	UpdInsertAfter
	// UpdDelete detaches the target from its parent.
	UpdDelete
	// UpdReplace replaces the target with content (attribute targets are
	// replaced by the update's attribute content).
	UpdReplace
	// UpdRename gives the target (element, attribute or PI) a new name.
	UpdRename
)

func (op UpdateOp) String() string {
	switch op {
	case UpdInsertInto:
		return "insert-into"
	case UpdInsertBefore:
		return "insert-before"
	case UpdInsertAfter:
		return "insert-after"
	case UpdDelete:
		return "delete"
	case UpdReplace:
		return "replace"
	case UpdRename:
		return "rename"
	}
	return fmt.Sprintf("UpdateOp(%d)", int(op))
}

// Update is one entry of a pending-update list. Target is a node of the
// source tree (the tree ApplyUpdates receives as root); Content and Attrs
// are fresh, parentless nodes the update layer has already copied out of
// whatever produced them.
type Update struct {
	Op     UpdateOp
	Target *Node
	// Content holds non-attribute content nodes (inserts and replaces).
	Content []*Node
	// Attrs holds attribute content: folded into the target for
	// UpdInsertInto, the replacement attributes when UpdReplace targets an
	// attribute node.
	Attrs []*Node
	// Name is the new name for UpdRename.
	Name string
}

// ApplyStats reports what one ApplyUpdates call did.
type ApplyStats struct {
	// Applied is the number of updates applied (the PUL length).
	Applied int64
	// SpineNodes is the number of lazy clone nodes materialized while
	// navigating to the targets — the copied spine. Everything else in the
	// new tree still shares the source's storage.
	SpineNodes int64
}

// Structural sentinel errors ApplyUpdates reports; the update runtime maps
// them onto XQuery Update Facility error codes.
var (
	// ErrTargetNotInTree : an update's target does not belong to the tree
	// being transformed.
	ErrTargetNotInTree = errors.New("update target is not in the tree being transformed")
	// ErrTargetIsRoot : delete/replace/insert-before/insert-after need a
	// parent to operate in, and the root has none.
	ErrTargetIsRoot = errors.New("update target is the root (no parent to restructure)")
	// ErrReplaceConflict : two replaces name the same target.
	ErrReplaceConflict = errors.New("two replaces target the same node")
	// ErrRenameConflict : two renames name the same target.
	ErrRenameConflict = errors.New("two renames target the same node")
)

// nodeOps accumulates every update aimed at one clone node.
type nodeOps struct {
	insBefore []*Node
	insAfter  []*Node
	replaced  bool
	replaceBy []*Node
	replAttrs []*Node
	deleted   bool
	renamed   bool
	renameTo  string
}

// applyState is the working state of one ApplyUpdates pass.
type applyState struct {
	ops     map[*Node]*nodeOps // keyed by clone node
	parents map[*Node]bool     // clone parents whose child lists need a rebuild
	// attrParents maps clone elements to attribute-level ops on them.
	attrParents map[*Node]bool
	attrOps     map[*Node]*nodeOps // keyed by clone attribute node
	// insInto is applied after the structural rebuild, in PUL order.
	insInto []intoOp
	// tab finds the source's positions under wide parents, so resolving
	// many targets under one of them scans it once.
	tab   sibTable
	stats ApplyStats
}

type intoOp struct {
	target  *Node
	attrs   []*Node
	content []*Node
}

// ApplyUpdates applies the pending-update list to the tree rooted at root
// and returns the transformed tree as a new frozen root. root itself is
// frozen (it becomes the source of a lazy clone) and is never mutated; both
// snapshots remain valid afterwards.
//
// When eager is true the logical copy is a full CloneEager deep copy and no
// sharing happens — the naive reference implementation the differential
// harness compares the COW path against.
func ApplyUpdates(root *Node, ups []Update, eager bool) (*Node, ApplyStats, error) {
	if root.Kind != ElementNode && root.Kind != DocumentNode {
		return nil, ApplyStats{}, fmt.Errorf("xmltree: cannot transform a %v root", root.Kind)
	}
	var newRoot *Node
	if eager {
		newRoot = root.CloneEager()
	} else {
		newRoot = root.Clone()
	}
	st := &applyState{
		ops:         map[*Node]*nodeOps{},
		parents:     map[*Node]bool{},
		attrParents: map[*Node]bool{},
		attrOps:     map[*Node]*nodeOps{},
	}
	// Phase A: resolve every target into the clone and record its ops.
	// All navigation happens before any structural change, so the source's
	// child indexes stay valid throughout.
	for i := range ups {
		if err := st.collect(root, newRoot, &ups[i]); err != nil {
			return nil, ApplyStats{}, err
		}
	}
	// Phase B: rebuild each touched parent's child list once.
	for parent := range st.parents {
		st.rebuildChildren(parent)
	}
	for parent := range st.attrParents {
		st.rebuildAttrs(parent)
	}
	// Phase C: renames and into-inserts (pure node-local mutations).
	for n, o := range st.ops {
		if o.renamed {
			n.Name = o.renameTo
		}
	}
	for a, o := range st.attrOps {
		if o.renamed {
			a.Name = o.renameTo
		}
	}
	for _, io := range st.insInto {
		for _, a := range io.attrs {
			io.target.AttachAttr(a)
		}
		for _, c := range io.content {
			io.target.AppendChild(c)
		}
	}
	st.stats.Applied = int64(len(ups))
	return Freeze(newRoot), st.stats, nil
}

// collect resolves one update's target into the clone and records the
// operation. The returned errors are the structural sentinels above.
func (st *applyState) collect(root, newRoot *Node, u *Update) error {
	target, err := st.resolve(root, newRoot, u.Target)
	if err != nil {
		return err
	}
	structural := u.Op == UpdDelete || u.Op == UpdReplace ||
		u.Op == UpdInsertBefore || u.Op == UpdInsertAfter
	if structural && target == newRoot {
		return ErrTargetIsRoot
	}
	if u.Target.Kind == AttributeNode {
		return st.collectAttr(target, u)
	}
	switch u.Op {
	case UpdInsertInto:
		st.insInto = append(st.insInto, intoOp{target: target, attrs: u.Attrs, content: u.Content})
		return nil
	case UpdRename:
		o := st.opsFor(target)
		if o.renamed {
			return ErrRenameConflict
		}
		o.renamed, o.renameTo = true, u.Name
		return nil
	}
	o := st.opsFor(target)
	st.parents[target.Parent] = true
	switch u.Op {
	case UpdInsertBefore:
		o.insBefore = append(o.insBefore, u.Content...)
	case UpdInsertAfter:
		o.insAfter = append(o.insAfter, u.Content...)
	case UpdDelete:
		o.deleted = true
	case UpdReplace:
		if o.replaced {
			return ErrReplaceConflict
		}
		o.replaced, o.replaceBy = true, u.Content
	}
	return nil
}

// collectAttr records an operation whose target is an attribute node.
// Inserts relative to attributes are rejected by the update runtime before
// the PUL reaches us, so only delete/replace/rename arrive here.
func (st *applyState) collectAttr(target *Node, u *Update) error {
	o := st.attrOps[target]
	if o == nil {
		o = &nodeOps{}
		st.attrOps[target] = o
	}
	switch u.Op {
	case UpdDelete:
		o.deleted = true
		st.attrParents[target.Parent] = true
	case UpdReplace:
		if o.replaced {
			return ErrReplaceConflict
		}
		o.replaced, o.replAttrs = true, u.Attrs
		st.attrParents[target.Parent] = true
	case UpdRename:
		if o.renamed {
			return ErrRenameConflict
		}
		o.renamed, o.renameTo = true, u.Name
	default:
		return fmt.Errorf("xmltree: %v cannot target an attribute", u.Op)
	}
	return nil
}

func (st *applyState) opsFor(n *Node) *nodeOps {
	o := st.ops[n]
	if o == nil {
		o = &nodeOps{}
		st.ops[n] = o
	}
	return o
}

// resolve maps a source-tree target to the corresponding node of the clone
// by replaying its list positions from the root down, materializing (and
// counting) exactly the spine nodes the path crosses.
func (st *applyState) resolve(root, newRoot, target *Node) (*Node, error) {
	at := locate(target)
	if at.root != root {
		return nil, ErrTargetNotInTree
	}
	// Leaf-first; an attribute position i is written ^i.
	var path []int
	for n, depth := target, at.depth; n.Parent != nil; n, depth = n.Parent, depth-1 {
		list, attr := n.Parent.Children(), n.Kind == AttributeNode
		if attr {
			list = n.Parent.Attrs()
		}
		i := st.tab.indexIn(list, n, depth)
		if i < 0 {
			return nil, ErrTargetNotInTree
		}
		if attr {
			i = ^i
		}
		path = append(path, i)
	}
	cur := newRoot
	for k := len(path) - 1; k >= 0; k-- {
		if cur.src.Load() != nil {
			st.stats.SpineNodes++
		}
		i := path[k]
		list := cur.Children()
		if i < 0 {
			i, list = ^i, cur.Attrs()
		}
		if i >= len(list) {
			return nil, ErrTargetNotInTree
		}
		cur = list[i]
	}
	return cur, nil
}

// rebuildChildren rewrites one parent's child list, applying every
// structural op aimed at its children in a single pass. Before-inserts
// precede the node (or its replacement), after-inserts follow it; a deleted
// node simply does not reappear.
func (st *applyState) rebuildChildren(parent *Node) {
	old := parent.Children()
	out := make([]*Node, 0, len(old))
	for _, k := range old {
		o := st.ops[k]
		if o == nil {
			out = append(out, k)
			continue
		}
		out = append(out, o.insBefore...)
		switch {
		case o.replaced:
			out = append(out, o.replaceBy...)
		case !o.deleted:
			out = append(out, k)
		}
		out = append(out, o.insAfter...)
	}
	parent.SetChildren(out)
}

// rebuildAttrs rewrites one element's attribute list for attribute-level
// deletes and replaces.
func (st *applyState) rebuildAttrs(parent *Node) {
	old := parent.Attrs()
	out := make([]*Node, 0, len(old))
	for _, a := range old {
		o := st.attrOps[a]
		if o == nil {
			out = append(out, a)
			continue
		}
		switch {
		case o.replaced:
			for _, r := range o.replAttrs {
				r.Parent = parent
				out = append(out, r)
			}
			a.Parent = nil
		case o.deleted:
			a.Parent = nil
		default:
			out = append(out, a)
		}
	}
	parent.materialize()
	parent.attrs = out
}
