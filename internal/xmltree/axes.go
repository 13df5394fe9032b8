package xmltree

// This file implements the thirteen XPath axes as node-slice producers.
// Axis results are returned in axis order (forward axes in document order,
// reverse axes in reverse document order); the XQuery engine re-sorts full
// step results into document order per the spec.
//
// Axes hand out nodes with identity, so navigating into a lazily cloned
// subtree materializes it level by level (via the Children/Attrs accessors).
// Only the levels actually navigated are ever copied.

// ChildAxis returns the children of n (empty for non-container nodes). The
// slice is n's own child list, like the index's lists: read it, do not
// write it.
func ChildAxis(n *Node) []*Node {
	if n.Kind != ElementNode && n.Kind != DocumentNode {
		return nil
	}
	return n.Children()
}

// AttributeAxis returns n's attribute nodes: n's own list, read-only like
// ChildAxis's.
func AttributeAxis(n *Node) []*Node {
	if n.Kind != ElementNode {
		return nil
	}
	return n.Attrs()
}

// ParentAxis returns n's parent, if any.
func ParentAxis(n *Node) []*Node {
	if n.Parent == nil {
		return nil
	}
	return []*Node{n.Parent}
}

// SelfAxis returns n itself.
func SelfAxis(n *Node) []*Node { return []*Node{n} }

// DescendantAxis returns all descendants of n in document order
// (attributes are not descendants).
func DescendantAxis(n *Node) []*Node {
	var out []*Node
	var rec func(*Node)
	rec = func(m *Node) {
		for _, c := range m.Children() {
			out = append(out, c)
			rec(c)
		}
	}
	rec(n)
	return out
}

// DescendantOrSelfAxis returns n followed by all its descendants.
func DescendantOrSelfAxis(n *Node) []*Node {
	return append([]*Node{n}, DescendantAxis(n)...)
}

// AncestorAxis returns n's ancestors, nearest first.
func AncestorAxis(n *Node) []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// AncestorOrSelfAxis returns n followed by its ancestors, nearest first.
func AncestorOrSelfAxis(n *Node) []*Node {
	return append([]*Node{n}, AncestorAxis(n)...)
}

// siblingsOf returns the parent's child list and n's index in it, or nil/-1
// for parentless or attribute nodes (attributes have no siblings).
func siblingsOf(n *Node) ([]*Node, int) {
	if n.Parent == nil || n.Kind == AttributeNode {
		return nil, -1
	}
	sibs := n.Parent.Children()
	for i, s := range sibs {
		if s == n {
			return sibs, i
		}
	}
	return nil, -1
}

// FollowingSiblingAxis returns siblings after n, in document order.
func FollowingSiblingAxis(n *Node) []*Node {
	sibs, i := siblingsOf(n)
	if i < 0 {
		return nil
	}
	return append([]*Node(nil), sibs[i+1:]...)
}

// PrecedingSiblingAxis returns siblings before n, nearest first
// (reverse document order, the axis order XPath specifies).
func PrecedingSiblingAxis(n *Node) []*Node {
	sibs, i := siblingsOf(n)
	if i <= 0 {
		return nil
	}
	out := make([]*Node, 0, i)
	for j := i - 1; j >= 0; j-- {
		out = append(out, sibs[j])
	}
	return out
}

// FollowingAxis returns every node after n in document order, excluding
// descendants and attributes.
func FollowingAxis(n *Node) []*Node {
	var out []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		for _, s := range FollowingSiblingAxis(cur) {
			out = append(out, DescendantOrSelfAxis(s)...)
		}
	}
	return out
}

// PrecedingAxis returns every node before n in reverse document order,
// excluding ancestors and attributes.
func PrecedingAxis(n *Node) []*Node {
	var out []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		sibs, i := siblingsOf(cur)
		for j := i - 1; j >= 0; j-- {
			sub := DescendantOrSelfAxis(sibs[j])
			for k := len(sub) - 1; k >= 0; k-- {
				out = append(out, sub[k])
			}
		}
	}
	return out
}
