// Package index builds structural and value indexes over frozen
// (copy-on-write-shared) XML subtrees, the access-path substrate behind the
// engine's IndexScan plan nodes.
//
// A DocIndex holds two kinds of section over one tree:
//
//   - element-name section: name → every element of that name, in document
//     order, so a scan can be scoped to any subtree by binary search over
//     the nodes' own pre-order ordinals (pre/post interval containment);
//   - value sections, one per probed Subject: exact string value → its
//     owners in document order. An attribute subject lists each element
//     under the value of each attribute of that name, for `[@attr = 'v']`
//     probes; a content subject lists it under the string value of each
//     child element of that name, for `[child = 'v']` probes.
//
// One probe (KeyEq) answers both kinds of value section.
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
// Every section builds by one rule: at its first probe, under the index's
// one lock, and published as a new immutable state that a probe of a built
// section loads without the lock. The structural pass runs at the first
// probe of any kind; each subject's value section at the first probe of
// that subject, so a tree pays one list entry per keyed attribute or child
// for the names it is probed by and nothing for the rest. The build's tree
// walk materializes lazy interior clones under the tree layer's
// materialization lock.
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
// index's root, which the structural pass has left numbered, so the list is sorted
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
	// mu serializes builds. Each build publishes a new sections value in
	// state; a probe of a built section loads it without the lock.
	mu    sync.Mutex
	state atomic.Pointer[sections]
}

// sections is one published state of an index. Nothing writes it after it
// is stored: a build stores a new value that shares names and elems and
// copies values.
type sections struct {
	// names lists elements by name in document order.
	names map[string]*nodeList
	// elems lists every element in document order (feeds the value
	// sections).
	elems []*xmltree.Node
	// values holds the value section of each subject probed so far.
	values map[Subject]valueSection
}

// valueSection maps a string value to its owners: the elements carrying
// it, in document order and without duplicates. An owner costs one list
// entry per keyed attribute or child.
type valueSection map[string]*nodeList

// add lists owner under val. Owners arrive in document order, so an owner
// already listed there is the list's last entry.
func (vs valueSection) add(val string, owner *xmltree.Node) {
	nl := vs[val]
	if nl == nil {
		nl = &nodeList{}
		vs[val] = nl
	}
	if n := len(nl.nodes); n > 0 && nl.nodes[n-1] == owner {
		return
	}
	nl.nodes = append(nl.nodes, owner)
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
	// First-store-wins: concurrent creators converge on one DocIndex, whose
	// lock makes each section build exactly once.
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
	// Built reports whether the structural section exists.
	Built bool
	// Elements is the indexed element count, Names the distinct element
	// names; both zero until the structural section builds.
	Elements, Names int
	// Attrs and Content map each attribute name and each child name whose
	// value section is built to its distinct values; nil until the first
	// probe of that kind.
	Attrs, Content map[string]int
}

// Info reports the index's current state without forcing any builds.
func (ix *DocIndex) Info() Info {
	s := ix.state.Load()
	if s == nil {
		return Info{}
	}
	info := Info{Built: true, Elements: len(s.elems), Names: len(s.names)}
	for subject, vs := range s.values {
		by := &info.Attrs
		if subject.Content {
			by = &info.Content
		}
		if *by == nil {
			*by = make(map[string]int)
		}
		(*by)[subject.Name] = len(vs)
	}
	return info
}

// load returns the published sections, first building under the lock what
// the probe finds missing: the structural pass at the first probe of any
// kind, which leaves the root numbered if it was not born so, and, for a
// keyed probe (subject non-nil), the subject's value section at its first
// probe. The walks materialize lazy interior clones; that is safe,
// synchronized, and paid once per tree.
func (ix *DocIndex) load(subject *Subject) *sections {
	s := ix.state.Load()
	if s != nil && (subject == nil || s.values[*subject] != nil) {
		return s
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if s = ix.state.Load(); s == nil {
		start := time.Now()
		s = &sections{names: make(map[string]*nodeList)}
		xmltree.NumberFrozen(ix.root, func(e *xmltree.Node) {
			nl := s.names[e.Name]
			if nl == nil {
				nl = &nodeList{}
				s.names[e.Name] = nl
			}
			nl.nodes = append(nl.nodes, e)
			s.elems = append(s.elems, e)
		})
		ix.publish(s, start)
	}
	if subject != nil && s.values[*subject] == nil {
		start := time.Now()
		values := make(map[Subject]valueSection, len(s.values)+1)
		maps.Copy(values, s.values)
		values[*subject] = subject.section(s.elems)
		s = &sections{names: s.names, elems: s.elems, values: values}
		ix.publish(s, start)
	}
	return s
}

// publish stores s as the index's state and counts the build that made it.
func (ix *DocIndex) publish(s *sections, start time.Time) {
	ix.state.Store(s)
	counters.Builds.Add(1)
	counters.BuildNanos.Add(time.Since(start).Nanoseconds())
}

// scope resolves a context node to the ordinal interval (pre, end] its
// descendants lie in, and returns the sections a probe of subject reads
// (see load). ok is false when the node hangs under another root (foreign
// nodes fall back); text and attribute contexts have no element
// descendants and return s == nil. Neither builds anything.
func (ix *DocIndex) scope(ctx *xmltree.Node, subject *Subject) (s *sections, pre, end uint32, ok bool) {
	if ctx.Kind != xmltree.ElementNode && ctx.Kind != xmltree.DocumentNode {
		return nil, 0, 0, true
	}
	if ctx.Root() != ix.root {
		return nil, 0, 0, false
	}
	s = ix.load(subject)
	return s, ctx.Ordinal(), ctx.SubtreeEnd(), true
}

// Descendants returns the elements named name in ctx's subtree (ctx
// excluded), in document order. The returned slice aliases index storage:
// callers must treat it as read-only. served is false when the context is
// unknown to this index and the caller must tree-walk.
func (ix *DocIndex) Descendants(ctx *xmltree.Node, name string) (nodes []*xmltree.Node, served bool) {
	s, pre, end, ok := ix.scope(ctx, nil)
	if !ok {
		counters.Fallbacks.Add(1)
		return nil, false
	}
	counters.Hits.Add(1)
	if s == nil {
		return nil, true
	}
	if nl := s.names[name]; nl != nil {
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

// section builds the subject's value section over elems, the tree's
// elements in document order: each element is listed under the value of
// each of its attributes named s.Name or, for content, under the string
// value of each of its child elements so named. Only children are keyed,
// so a grandchild of that name is not; mixed content is keyed by its
// concatenated string value. Duplicate attributes (the Galax bug trees)
// list the owner under every present value.
func (s Subject) section(elems []*xmltree.Node) valueSection {
	vs := make(valueSection)
	for _, e := range elems {
		if !s.Content {
			for _, a := range e.Attrs() {
				if a.Name == s.Name {
					vs.add(a.Data, e)
				}
			}
			continue
		}
		for _, c := range e.Children() {
			if c.Kind == xmltree.ElementNode && c.Name == s.Name {
				vs.add(c.StringValue(), e)
			}
		}
	}
	return vs
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
	s, pre, end, ok := ix.scope(ctx, &subject)
	if !ok {
		counters.Fallbacks.Add(1)
		return Keyed{}, false
	}
	counters.Hits.Add(1)
	if s == nil {
		return Keyed{}, true
	}
	byName, byKey := s.names[name], s.values[subject][val]
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
