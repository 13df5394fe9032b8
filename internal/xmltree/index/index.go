// Package index builds structural and value indexes over frozen
// (copy-on-write-shared) XML subtrees, the access-path substrate behind the
// engine's IndexScan plan nodes.
//
// A DocIndex holds three sections over one tree:
//
//   - element-name index: name → every element of that name, in document
//     order, so a scan can be scoped to any subtree by binary search over
//     the nodes' own pre-order ordinals (pre/post interval containment);
//   - attribute section: (attribute name, exact string value) → the owning
//     elements in document order, for `[@attr = 'v']` probes;
//   - content section: (child element name, the child's string value) →
//     its parents in document order, for `[child = 'v']` probes, built one
//     child name at a time.
//
// The two value sections are one type, name → value → owners, and one
// probe (KeyEq) answers both through a Subject.
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
// Sections build lazily (first probe pays) and concurrently safely: the
// structural and attribute sections are each behind a sync.Once, a content
// section for a child name is built once under a mutex and published by
// copy-on-write, and the build's tree walk materializes lazy interior clones
// under the tree layer's materialization lock. After a build the maps are
// read-only, so a tree never probed by content pays nothing for it.
//
// Builds, build time, probe hits and tree-walk fallbacks are counted
// process-wide in the obs registry (see counters).
package index

import (
	"maps"
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
	// attrs is the attribute section. Duplicate attributes (the Galax bug
	// trees) index the owner under every present (name, value) pair.
	attrs valueSection

	// content is the content section, holding the child names probed so
	// far. A probe of a built name loads it without a lock; contentMu
	// serializes the builds, each of which publishes a copy with one more
	// name.
	contentMu sync.Mutex
	content   atomic.Pointer[valueSection]
}

// valueSection maps a subject's name, then a string value, to the value's
// owners: the elements carrying it, in document order and without
// duplicates. An owner costs one list entry per keyed attribute or child.
type valueSection map[string]map[string]*nodeList

// add lists owner under (name, val). Owners arrive in document order, so an
// owner already listed there is the list's last entry.
func (s valueSection) add(name, val string, owner *xmltree.Node) {
	byValue := s[name]
	if byValue == nil {
		byValue = make(map[string]*nodeList)
		s[name] = byValue
	}
	nl := byValue[val]
	if nl == nil {
		nl = &nodeList{}
		byValue[val] = nl
	}
	if n := len(nl.nodes); n > 0 && nl.nodes[n-1] == owner {
		return
	}
	nl.nodes = append(nl.nodes, owner)
}

// keys counts the section's distinct (name, value) pairs.
func (s valueSection) keys() int {
	n := 0
	for _, byValue := range s {
		n += len(byValue)
	}
	return n
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
	// Content maps each child name whose content section is built to its
	// distinct values; nil until the first content probe.
	Content map[string]int
}

// Info reports the index's current state without forcing any builds.
func (ix *DocIndex) Info() Info {
	info := Info{Built: ix.structDone.Load(), AttrsBuilt: ix.attrDone.Load()}
	if info.Built {
		info.Elements = len(ix.elems)
		info.Names = len(ix.names)
	}
	if info.AttrsBuilt {
		info.AttrKeys = ix.attrs.keys()
	}
	if content := ix.content.Load(); content != nil {
		info.Content = make(map[string]int, len(*content))
		for name, byValue := range *content {
			info.Content[name] = len(byValue)
		}
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

// ensureAttrs builds the attribute section from the structural section's
// document-ordered element list.
func (ix *DocIndex) ensureAttrs() {
	ix.ensureStruct()
	ix.attrOnce.Do(func() {
		start := time.Now()
		ix.attrs = make(valueSection)
		for _, e := range ix.elems {
			for _, a := range e.Attrs() {
				ix.attrs.add(a.Name, a.Data, e)
			}
		}
		counters.Builds.Add(1)
		counters.BuildNanos.Add(time.Since(start).Nanoseconds())
		ix.attrDone.Store(true)
	})
}

// contentOf returns the content section's values for child name, building
// them at the first probe for the name: every element, in document order,
// is listed under the string value of each of its child elements so named.
// Only children are keyed, so a grandchild of that name is not; mixed
// content is keyed by its concatenated string value.
func (ix *DocIndex) contentOf(name string) map[string]*nodeList {
	if content := ix.content.Load(); content != nil {
		if byValue, ok := (*content)[name]; ok {
			return byValue
		}
	}
	ix.contentMu.Lock()
	defer ix.contentMu.Unlock()
	next := make(valueSection)
	if content := ix.content.Load(); content != nil {
		if byValue, ok := (*content)[name]; ok {
			return byValue // built while this probe waited
		}
		maps.Copy(next, *content)
	}
	start := time.Now()
	next[name] = make(map[string]*nodeList)
	for _, e := range ix.elems {
		for _, c := range e.Children() {
			if c.Kind == xmltree.ElementNode && c.Name == name {
				next.add(name, c.StringValue(), e)
			}
		}
	}
	ix.content.Store(&next)
	counters.Builds.Add(1)
	counters.BuildNanos.Add(time.Since(start).Nanoseconds())
	return next[name]
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

// Subject is what a keyed probe compares with its value: each candidate's
// attributes named Name or, when Content is set, the string values of its
// child elements named Name.
type Subject struct {
	Name    string
	Content bool
}

// Holds reports whether n carries the subject with string value exactly
// val. It checks every attribute or child of the name, matching the
// existential semantics of an [@attr = 'v'] or [child = 'v'] predicate over
// trees holding duplicate attributes (the Galax-bug policy) or repeated
// children. It is the check a probe leaves to Keyed.Keep and the one a walk
// applies when there is no index.
func (s Subject) Holds(n *xmltree.Node, val string) bool {
	if !s.Content {
		for _, a := range n.Attrs() {
			if a.Name == s.Name && a.Data == val {
				return true
			}
		}
		return false
	}
	for _, c := range n.Children() {
		if c.Kind == xmltree.ElementNode && c.Name == s.Name && c.StringValue() == val {
			return true
		}
	}
	return false
}

// Keyed is the answer to a keyed probe: a scoped list that aliases index
// storage, read-only to every caller, and the check each of its entries must
// still pass (Keep). The caller appends the survivors wherever its result
// lives, so the probe itself allocates nothing.
type Keyed struct {
	// Nodes is the shorter of the two scoped lists, the elements named
	// name or the owners of subject = val, in document order.
	Nodes []*xmltree.Node
	// byName says Nodes is the name list, whose entries still need the
	// subject; otherwise it is the value list, whose entries need the name.
	byName    bool
	ctx       *xmltree.Node
	child     bool
	name, val string
	subject   Subject
}

// Keep reports whether n, an entry of k.Nodes, is one of the probe's
// answers: named right and carrying subject = val, and for a child probe a
// child of the context node.
func (k *Keyed) Keep(n *xmltree.Node) bool {
	if k.child && n.Parent != k.ctx {
		return false
	}
	if k.byName {
		return k.subject.Holds(n, k.val)
	}
	return n.Name == k.name
}

// KeyEq probes for the elements named name that carry subject with exact
// string value val among ctx's descendants, or its children when child is
// set. It scopes whichever of the name list and the subject's value list is
// shorter and hands that out as k.Nodes, whose entries the caller filters
// with k.Keep: a binary search reads ordinals off the nodes, so the long
// list is not searched at all. served is false when the context is unknown
// to this index and the caller must tree-walk.
func (ix *DocIndex) KeyEq(ctx *xmltree.Node, name string, subject Subject, val string, child bool) (k Keyed, served bool) {
	pre, end, empty, ok := ix.scope(ctx)
	if !ok {
		counters.Fallbacks.Add(1)
		return Keyed{}, false
	}
	counters.Hits.Add(1)
	if empty {
		return Keyed{}, true
	}
	var byValue map[string]*nodeList
	if subject.Content {
		byValue = ix.contentOf(subject.Name)
	} else {
		ix.ensureAttrs()
		byValue = ix.attrs[subject.Name]
	}
	byName, byKey := ix.names[name], byValue[val]
	if byName == nil || byKey == nil {
		return Keyed{}, true
	}
	k = Keyed{ctx: ctx, child: child, name: name, val: val, subject: subject}
	if len(byKey.nodes) <= len(byName.nodes) {
		k.Nodes = byKey.rng(pre, end)
	} else {
		k.Nodes, k.byName = byName.rng(pre, end), true
	}
	return k, true
}
