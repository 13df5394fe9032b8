package xmltree

// order.go is document order: the total order over the nodes of a tree that
// every XPath step result is normalized into (SortDocOrder) and that `<<`
// and `>>` ask about directly (CompareDocOrder).
//
// # Ordinals
//
// A node carries a pre-order ordinal, Node.ord: an element before its
// attributes, its attributes before its children, gaps allowed. The ordinals
// of a tree are valid exactly while its root has flagNumbered set, and no
// code reads ord without first loading that flag from the root the node
// currently hangs under. Two places set it, both on a frozen tree nobody
// may mutate any more:
//
//   - ParseProjectedStats, on return: buildTree numbers nodes as it creates
//     them, and the flag is published with the Freeze, before anyone else
//     has seen the tree;
//   - NumberFrozen, which index.ensureStruct runs once per frozen root: the
//     walk that already visits every container numbers a root that was not
//     born numbered and then publishes the flag. The flag store is a
//     release, a reader's flag load an acquire, so a reader that sees the
//     flag sees every ordinal written before it; a reader that does not
//     falls back and never looks at ord.
//
// Everything else — Clone and the stubs it materializes, constructors,
// every mutator — makes nodes under roots that are not numbered, so a
// mutable tree needs no invalidation hook: it simply is not numbered.
//
// # Trees that are not numbered
//
// Two nodes of such a tree are ordered by climbing to their lowest common
// ancestor and asking which of the two branches comes first among that one
// parent's attributes or children. CompareDocOrder scans the parent once; a
// sort carries a sibTable, so that no parent wider than wideParent is
// scanned per node: positions asked for in document order — the check that
// the input is sorted already, which it usually is — are found by scanning
// on from the previous one, and positions asked for in any other order come
// from a table of the parent's children built once.

import (
	"cmp"
	"slices"
	"unsafe"
)

// wideParent is the attribute- or child-list length above which a sort
// tables positions instead of scanning the list.
const wideParent = 16

// Numbered reports whether n, a root, has valid ordinals below it.
func (n *Node) Numbered() bool { return n.flags.Load()&flagNumbered != 0 }

// Ordinal returns n's pre-order ordinal. It means something only under a
// root that reports Numbered; callers check that first.
func (n *Node) Ordinal() uint32 { return n.ord }

// SubtreeEnd returns the ordinal of the last node of n's subtree that is not
// an attribute (n's own when it has no children), under the same rule as
// Ordinal: the elements below n are the elements whose ordinal is in
// (n.Ordinal(), n.SubtreeEnd()].
func (n *Node) SubtreeEnd() uint32 {
	for {
		kids := n.Children()
		if len(kids) == 0 {
			return n.ord
		}
		n = kids[len(kids)-1]
	}
}

// NumberFrozen walks the tree under root in document order, materializing
// every lazy clone inside it, and calls elem on each element. A root that
// was not numbered leaves numbered. root must be frozen and parentless, and
// the caller the only one running this on it (index.ensureStruct's
// sync.Once; index.For turns other roots away).
func NumberFrozen(root *Node, elem func(*Node)) {
	number := !root.Numbered()
	var next uint32
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == ElementNode {
			elem(n)
		}
		attrs := n.Attrs()
		if number {
			n.ord = next
			next++
			for _, a := range attrs {
				a.ord = next
				next++
			}
		}
		for _, c := range n.children {
			if c.Kind == ElementNode || c.Kind == DocumentNode {
				walk(c)
			} else if number {
				c.ord = next
				next++
			}
		}
	}
	walk(root)
	if number {
		root.setFlag(flagNumbered)
	}
}

// located is a node with its depth and root, found in one climb.
type located struct {
	n     *Node
	depth int
	root  *Node
}

func locate(n *Node) located {
	l := located{n: n, root: n}
	for l.root.Parent != nil {
		l.root = l.root.Parent
		l.depth++
	}
	return l
}

// CompareDocOrder orders two nodes: -1 if a precedes b, 0 if a == b, +1 if
// a follows b. Nodes of different trees are ordered by their roots'
// addresses: arbitrary, but the same answer for every pair of the two trees
// and stable within a process.
func CompareDocOrder(a, b *Node) int {
	return compareLocated(locate(a), locate(b), nil)
}

func compareLocated(a, b located, tab *sibTable) int {
	if a.n == b.n {
		return 0
	}
	if a.root != b.root {
		return compareAddr(a.root, b.root)
	}
	if a.root.Numbered() {
		return cmp.Compare(a.n.ord, b.n.ord)
	}
	x, y := a.n, b.n
	for d := a.depth; d > b.depth; d-- {
		x = x.Parent
	}
	for d := b.depth; d > a.depth; d-- {
		y = y.Parent
	}
	if x == y {
		// One is the other's ancestor, and the ancestor comes first.
		if x == a.n {
			return -1
		}
		return 1
	}
	depth := min(a.depth, b.depth)
	for x.Parent != y.Parent {
		x, y = x.Parent, y.Parent
		depth--
	}
	return siblingOrder(x, y, depth, tab)
}

// compareAddr orders two distinct nodes by address.
func compareAddr(a, b *Node) int {
	return cmp.Compare(uintptr(unsafe.Pointer(a)), uintptr(unsafe.Pointer(b)))
}

// siblingOrder orders two distinct nodes of one parent, depth below their
// root: attributes before children, and within either list by position.
func siblingOrder(x, y *Node, depth int, tab *sibTable) int {
	xa, ya := x.Kind == AttributeNode, y.Kind == AttributeNode
	if xa != ya {
		if xa {
			return -1
		}
		return 1
	}
	list := x.Parent.Children()
	if xa {
		list = x.Parent.Attrs()
	}
	r := 0
	if tab != nil && len(list) > wideParent {
		r = cmp.Compare(tab.indexIn(list, x, depth), tab.indexIn(list, y, depth))
	} else {
		for _, k := range list {
			if k == x {
				r = -1
				break
			}
			if k == y {
				r = 1
				break
			}
		}
	}
	if r == 0 {
		// Neither is in the list any more (SetChildren leaves the old
		// children's Parent behind): any consistent answer will do.
		r = compareAddr(x, y)
	}
	return r
}

// sibTable finds positions in wide sibling lists for the length of one sort
// or one update pass. The zero value is ready; a nil *sibTable scans.
type sibTable struct {
	// ahead[d] is where the last position found among siblings d below the
	// root was, and in which list (&list[0]). A sequence in document order
	// asks for positions under one parent in increasing order and never
	// comes back to a parent it has left, so scanning on from there finds
	// each of them in amortized constant time, and allocates nothing.
	ahead [8]struct {
		list **Node
		at   int
	}
	// unordered says positions will be asked for in no particular order, so
	// scanning on is pointless.
	unordered bool
	// pos tables every member of each list that scanning on did not serve.
	pos map[*Node]int
}

// indexIn returns the position of c, depth below its root, in list, one of
// its parent's two lists, or -1.
func (t *sibTable) indexIn(list []*Node, c *Node, depth int) int {
	if t == nil || len(list) <= wideParent {
		return slices.Index(list, c)
	}
	if i, ok := t.pos[c]; ok {
		return i
	}
	if !t.unordered && depth < len(t.ahead) {
		a := &t.ahead[depth]
		if a.list != &list[0] {
			a.list, a.at = &list[0], 0
		}
		if i := slices.Index(list[a.at:], c); i >= 0 {
			a.at += i
			return a.at
		}
	}
	if t.pos == nil {
		t.pos = make(map[*Node]int, len(list))
	}
	for i, k := range list {
		t.pos[k] = i
	}
	i, ok := t.pos[c]
	if !ok {
		i = -1
		t.pos[c] = i // tabled as absent, so the list is not tabled again
	}
	return i
}

// SortDocOrder sorts nodes into document order in place and removes
// duplicates (by identity), returning the possibly-shortened slice. This is
// the normalization applied to every XPath step result.
func SortDocOrder(nodes []*Node) []*Node {
	return SortDocOrderFunc(nodes, func(n *Node) *Node { return n })
}

// SortDocOrderFunc is SortDocOrder over any slice whose elements hold a
// node. Input that is already in document order without duplicates — what
// every forward step over ordered input produces — is recognised in one
// pass and returned untouched; under a numbered root that pass, and the
// sort when it is needed, compare integers. Nothing is allocated except,
// to sort input that was not in order, the position table of a wide parent
// in a tree that is not numbered.
func SortDocOrderFunc[E any](s []E, node func(E) *Node) []E {
	if len(s) < 2 {
		return s
	}
	var tab sibTable
	ordered, oneRoot := true, true
	prev := locate(node(s[0]))
	for _, e := range s[1:] {
		cur := locate(node(e))
		oneRoot = oneRoot && cur.root == prev.root
		ordered = ordered && compareLocated(prev, cur, &tab) < 0
		if !ordered && !oneRoot {
			break
		}
		prev = cur
	}
	if ordered {
		return s
	}
	if oneRoot && prev.root.Numbered() {
		slices.SortFunc(s, func(a, b E) int { return cmp.Compare(node(a).ord, node(b).ord) })
	} else {
		tab.unordered = true
		slices.SortFunc(s, func(a, b E) int {
			return compareLocated(locate(node(a)), locate(node(b)), &tab)
		})
	}
	return slices.CompactFunc(s, func(a, b E) bool { return node(a) == node(b) })
}
