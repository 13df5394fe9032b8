// Package index builds structural and value indexes over frozen
// (copy-on-write-shared) XML subtrees, the access-path substrate behind the
// engine's IndexScan plan nodes.
//
// A DocIndex holds two sections over one tree:
//
//   - element-name index: name → every element of that name, in document
//     order, so a scan can be scoped to any subtree by binary search over
//     the nodes' own pre-order ordinals (pre/post interval containment);
//   - attribute/value index: (attribute name, exact string value) → the
//     owning elements in document order, for `[@attr = 'v']` probes.
//
// # Lifecycle and the COW contract
//
// Indexes are memoized on the tree root through Node.SetIndexCache the same
// way string values are memoized on frozen nodes: one build is shared by
// every evaluation, every lazy clone taken FROM the tree, and every tenant
// holding the same snapshot. The anchor rule is stricter than the string
// value memo, though — For only serves a root that is itself solid and
// shared (Node.IndexCacheable). A lazy clone shares its source's *content*
// but not its *identities*: the clone's materialized descendants are fresh
// nodes, and the clone is still mutable. Serving the source's index to a
// clone would hand out wrong nodes before any mutation and stale answers
// after one, so a clone simply never sees it — mutation safety falls out of
// the anchor rule instead of requiring invalidation hooks.
//
// Sections build lazily (first probe pays) and concurrently safely: each
// section is behind a sync.Once, and the build's tree walk materializes lazy
// interior clones under the tree layer's materialization lock. After a
// build the maps are read-only.
//
// Builds, build time, probe hits and tree-walk fallbacks are counted
// process-wide in the obs registry (see counters).
package index

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lopsided/internal/obs"
	"lopsided/internal/xmltree"
)

// counters is where this package counts its process-wide traffic: section
// builds and their wall time, probes served from an index, and probes that
// fell back to a tree walk.
var counters = &obs.Default().Index

// nodeList is a document-ordered element list. Its nodes hang under the
// index's root, which ensureStruct has left numbered, so the list is sorted
// by Ordinal and subtree scoping is two binary searches.
type nodeList struct {
	nodes []*xmltree.Node
}

// rng returns the sub-list of entries with ordinal in (pre, end].
func (nl *nodeList) rng(pre, end uint32) []*xmltree.Node {
	lo := sort.Search(len(nl.nodes), func(i int) bool { return nl.nodes[i].Ordinal() > pre })
	hi := sort.Search(len(nl.nodes), func(i int) bool { return nl.nodes[i].Ordinal() > end })
	return nl.nodes[lo:hi]
}

// DocIndex is the lazily-built structural and value index of one frozen
// tree. Safe for concurrent use; obtain one through For.
type DocIndex struct {
	root *xmltree.Node

	structOnce sync.Once
	structDone atomic.Bool
	// names lists elements by name in document order.
	names map[string]*nodeList
	// elems lists every element in document order (feeds the value index).
	elems []*xmltree.Node

	attrOnce sync.Once
	attrDone atomic.Bool
	// attrs maps attrName + "\x00" + value to the owning elements in
	// document order. Duplicate attributes (the Galax bug trees) index the
	// owner under every present (name, value) pair.
	attrs map[string]*nodeList
}

// For returns the tree's index, creating the (empty, unbuilt) DocIndex on
// first use and memoizing it on the root. ok is false when the root is not
// index-cacheable — not frozen, or a still-mutable lazy clone — or is not
// the top of its tree (ordinals are numbered from a tree's root), in which
// case the caller must fall back to a tree walk (counted here).
func For(root *xmltree.Node) (*DocIndex, bool) {
	if !root.IndexCacheable() || root.Parent != nil {
		counters.Fallbacks.Add(1)
		return nil, false
	}
	if v := root.IndexCache(); v != nil {
		return v.(*DocIndex), true
	}
	// First-store-wins: concurrent creators converge on one DocIndex, and
	// its sync.Onces make each section build exactly once.
	got := root.SetIndexCache(&DocIndex{root: root})
	return got.(*DocIndex), true
}

// Peek returns the tree's index only if one is already memoized on the
// root; it never creates or builds anything.
func Peek(root *xmltree.Node) (*DocIndex, bool) {
	if v := root.IndexCache(); v != nil {
		return v.(*DocIndex), true
	}
	return nil, false
}

// Info describes an index's state for observability surfaces.
type Info struct {
	// Built reports whether the structural section exists; AttrsBuilt the
	// value section.
	Built, AttrsBuilt bool
	// Elements is the indexed element count, Names the distinct element
	// names, AttrKeys the distinct (attribute, value) pairs. All zero until
	// the owning section builds.
	Elements, Names, AttrKeys int
}

// Info reports the index's current state without forcing any builds.
func (ix *DocIndex) Info() Info {
	info := Info{Built: ix.structDone.Load(), AttrsBuilt: ix.attrDone.Load()}
	if info.Built {
		info.Elements = len(ix.elems)
		info.Names = len(ix.names)
	}
	if info.AttrsBuilt {
		info.AttrKeys = len(ix.attrs)
	}
	return info
}

// ensureStruct builds the structural section (name lists) on first use, and
// leaves the root numbered if it was not born so. The walk materializes
// lazy interior clones; that is safe, synchronized, and paid once per tree.
func (ix *DocIndex) ensureStruct() {
	ix.structOnce.Do(func() {
		start := time.Now()
		ix.names = make(map[string]*nodeList)
		xmltree.NumberFrozen(ix.root, func(e *xmltree.Node) {
			nl := ix.names[e.Name]
			if nl == nil {
				nl = &nodeList{}
				ix.names[e.Name] = nl
			}
			nl.nodes = append(nl.nodes, e)
			ix.elems = append(ix.elems, e)
		})
		counters.Builds.Add(1)
		counters.BuildNanos.Add(time.Since(start).Nanoseconds())
		ix.structDone.Store(true)
	})
}

// ensureAttrs builds the value section from the structural section's
// document-ordered element list.
func (ix *DocIndex) ensureAttrs() {
	ix.ensureStruct()
	ix.attrOnce.Do(func() {
		start := time.Now()
		ix.attrs = make(map[string]*nodeList)
		for _, e := range ix.elems {
			for _, a := range e.Attrs() {
				key := a.Name + "\x00" + a.Data
				nl := ix.attrs[key]
				if nl == nil {
					nl = &nodeList{}
					ix.attrs[key] = nl
				}
				// Duplicate attributes with an identical (name, value) pair
				// must not list the owner twice.
				if n := len(nl.nodes); n > 0 && nl.nodes[n-1] == e {
					continue
				}
				nl.nodes = append(nl.nodes, e)
			}
		}
		counters.Builds.Add(1)
		counters.BuildNanos.Add(time.Since(start).Nanoseconds())
		ix.attrDone.Store(true)
	})
}

// scope resolves a context node to the ordinal interval (pre, end] its
// descendants lie in. ok is false when the node hangs under another root
// (foreign nodes fall back; text and attribute contexts have no element
// descendants and return empty=true).
func (ix *DocIndex) scope(ctx *xmltree.Node) (pre, end uint32, empty, ok bool) {
	if ctx.Kind != xmltree.ElementNode && ctx.Kind != xmltree.DocumentNode {
		return 0, 0, true, true
	}
	ix.ensureStruct()
	if ctx.Root() != ix.root {
		return 0, 0, false, false
	}
	return ctx.Ordinal(), ctx.SubtreeEnd(), false, true
}

// Descendants returns the elements named name in ctx's subtree (ctx
// excluded), in document order. The returned slice aliases index storage:
// callers must treat it as read-only. served is false when the context is
// unknown to this index and the caller must tree-walk.
func (ix *DocIndex) Descendants(ctx *xmltree.Node, name string) (nodes []*xmltree.Node, served bool) {
	pre, end, empty, ok := ix.scope(ctx)
	if !ok {
		counters.Fallbacks.Add(1)
		return nil, false
	}
	if empty {
		counters.Hits.Add(1)
		return nil, true
	}
	counters.Hits.Add(1)
	if nl := ix.names[name]; nl != nil {
		nodes = nl.rng(pre, end)
	}
	return nodes, true
}

// DescendantsAttrEq returns the elements named name in ctx's subtree that
// carry an attribute attr with exact string value val, in document order.
// The probe scopes and scans whichever of the name list and the (attr, val)
// list is shorter, filtering by the other condition: a binary search reads
// ordinals off the nodes, so the long list is not searched at all.
func (ix *DocIndex) DescendantsAttrEq(ctx *xmltree.Node, name, attr, val string) (nodes []*xmltree.Node, served bool) {
	pre, end, empty, ok := ix.scope(ctx)
	if !ok {
		counters.Fallbacks.Add(1)
		return nil, false
	}
	if empty {
		counters.Hits.Add(1)
		return nil, true
	}
	ix.ensureAttrs()
	counters.Hits.Add(1)
	byName, byAttr := ix.names[name], ix.attrs[attr+"\x00"+val]
	if byName == nil || byAttr == nil {
		return nil, true
	}
	if len(byAttr.nodes) <= len(byName.nodes) {
		for _, n := range byAttr.rng(pre, end) {
			if n.Name == name {
				nodes = append(nodes, n)
			}
		}
		return nodes, true
	}
	for _, n := range byName.rng(pre, end) {
		if AttrAnyEq(n, attr, val) {
			nodes = append(nodes, n)
		}
	}
	return nodes, true
}

// ChildrenAttrEq returns ctx's direct children named name carrying
// attribute attr with exact string value val, in document (= child) order,
// via the scoped value index filtered to Parent == ctx.
func (ix *DocIndex) ChildrenAttrEq(ctx *xmltree.Node, name, attr, val string) (nodes []*xmltree.Node, served bool) {
	pre, end, empty, ok := ix.scope(ctx)
	if !ok {
		counters.Fallbacks.Add(1)
		return nil, false
	}
	if empty {
		counters.Hits.Add(1)
		return nil, true
	}
	ix.ensureAttrs()
	counters.Hits.Add(1)
	if nl := ix.attrs[attr+"\x00"+val]; nl != nil {
		for _, n := range nl.rng(pre, end) {
			if n.Parent == ctx && n.Name == name {
				nodes = append(nodes, n)
			}
		}
	}
	return nodes, true
}

// AttrAnyEq reports whether n carries any attribute named attr whose string
// value is exactly val. Unlike Node.Attr it checks every attribute of the
// name, matching the existential semantics of an [@attr = 'v'] predicate
// over trees holding duplicate attributes (the Galax-bug policy).
func AttrAnyEq(n *xmltree.Node, attr, val string) bool {
	for _, a := range n.Attrs() {
		if a.Name == attr && a.Data == val {
			return true
		}
	}
	return false
}
