// Package xmltree implements a from-scratch XML document object model:
// parsing, navigation, mutation, and serialization of XML trees.
//
// The model is deliberately close to the XQuery/XPath data model's view of
// XML: six node kinds (document, element, attribute, text, comment,
// processing instruction), parent links everywhere, attributes modeled as
// nodes (the paper's "illogically, it caused us a great deal of trouble"
// attribute nodes), and a total document order over all nodes of a tree.
//
// It intentionally does not use encoding/xml: the reproduction builds every
// substrate from scratch, and the XQuery engine needs direct control over
// node identity, attribute nodes, and document order.
//
// # Copy-on-write cloning
//
// Clone is lazy: it returns a new root whose subtree structurally shares the
// source until somebody looks at it. A cloned container holds a pointer to
// its source instead of copied child lists; the first navigation or mutation
// of the clone materializes exactly one level (fresh Node identities whose
// children are again lazy), so an untouched subtree is never copied at all.
// This is the FLUX-style structure sharing that turns the paper's C2
// "multiple copies of the entire output" from a physical cost into a logical
// description.
//
// The contract is asymmetric, and callers must honor it:
//
//   - The CLONE is freely mutable. Mutating it breaks sharing along the
//     mutated path only ("path copying").
//   - The SOURCE subtree is frozen by Clone: mutating any node of it while a
//     clone still shares it is a programmer error (the clone would observe
//     the mutation). The XQuery engine and both document generators only
//     clone values they never mutate afterwards, matching XQuery's own
//     immutable-value semantics.
//
// Node identity is per logical tree: every materialized node is a distinct
// Go pointer, stable once created, so `is` comparisons, sibling axes, and
// document order behave exactly as with eager copies. Concurrent read-only
// use of a tree containing lazy clones is safe: materialization is
// synchronized internally (one lock + atomic publication).
//
// # Panic contract
//
// Functions in this package panic only on programmer misuse of the tree API
// — appending a node to a non-container, inserting under the wrong parent,
// re-parenting an attribute node, or calling MustParse on a malformed
// literal. No input reachable from user data may panic: Parse and
// ParseFragment return *ParseError for every malformed document, including
// pathologically deep nesting (bounded by ParseOptions.MaxDepth, default
// DefaultMaxDepth, so recursion cannot overflow the goroutine stack).
// Callers feeding untrusted input must use the error-returning entry
// points; the XQuery engine additionally contains any residual panic at its
// Eval boundary and surfaces it as a coded LOPS0009 error.
package xmltree

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"lopsided/internal/obs"
)

// NodeKind identifies which of the six XML node kinds a Node is.
type NodeKind uint8

// The six node kinds of the XML data model.
const (
	DocumentNode NodeKind = iota
	ElementNode
	AttributeNode
	TextNode
	CommentNode
	PINode
)

// String returns the XPath kind-test spelling of the node kind.
func (k NodeKind) String() string {
	switch k {
	case DocumentNode:
		return "document-node()"
	case ElementNode:
		return "element()"
	case AttributeNode:
		return "attribute()"
	case TextNode:
		return "text()"
	case CommentNode:
		return "comment()"
	case PINode:
		return "processing-instruction()"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a single node of an XML tree. One concrete struct represents all
// six kinds; fields that do not apply to a kind are empty.
//
//   - DocumentNode: Children() holds the top-level nodes.
//   - ElementNode: Name is the element name, Attrs() its attribute nodes,
//     Children() its content.
//   - AttributeNode: Name is the attribute name, Data its string value.
//   - TextNode, CommentNode: Data is the text.
//   - PINode: Name is the target, Data the instruction body.
//
// Nodes have identity: two distinct Node pointers are distinct nodes even if
// structurally equal, exactly as in the XQuery data model.
//
// Child and attribute lists are behind the Children and Attrs accessors
// (they materialize lazy clones on demand); the scalar fields stay public
// and are always populated eagerly.
//
// A node is 80 bytes: a 16-byte header (kind, flags, ordinal, attribute
// count), Name, Data, Parent, one content list and one copy-on-write word.
type Node struct {
	Kind NodeKind
	// flags holds flagShared — the node is (or has been) the source of a
	// lazy clone or was frozen, so its subtree must no longer be mutated;
	// used for subtree-cache eligibility (IndexCacheable) — flagIndexed
	// (cow holds an index box, below) and, on a root, flagNumbered (see
	// order.go).
	flags atomic.Uint32
	// ord is the node's pre-order ordinal. It means something only while
	// the node's root has flagNumbered set, and is read only after that
	// flag has been loaded.
	ord uint32
	// nattr is how many entries at the front of the content list are
	// attributes.
	nattr  uint32
	Name   string // element/attribute name or PI target (as written, possibly prefix:local)
	Data   string // text, comment or PI content, or attribute value
	Parent *Node

	// The content list: an element's attributes, then its children (a
	// document's children), as a pointer to the first entry with a length
	// and a capacity.
	lp         **Node
	llen, lcap uint32

	// cow is the copy-on-write word. While the node is a lazy clone (a
	// stub) it points at the source Node whose list holds the node's
	// logical content; that source is always materialized and frozen for
	// as long as the clone may read it. Once the node is a solid, shared
	// root it may instead hold an index box (*any: a subtree-level cache,
	// in practice the structural/value index), and flagIndexed, set before
	// the box is published, says so. A stub is never indexed, and a node
	// never turns back into a stub, so the two uses never overlap. It is
	// read and written only through sync/atomic.
	cow unsafe.Pointer
}

const (
	flagShared uint32 = 1 << iota
	flagNumbered
	flagIndexed
)

// setFlag sets bits of n.flags, keeping the others.
func (n *Node) setFlag(bits uint32) {
	for {
		old := n.flags.Load()
		if old&bits == bits || n.flags.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// list returns n's whole content list, attributes first, with its spare
// capacity, without materializing.
func (n *Node) list() []*Node {
	return unsafe.Slice(n.lp, n.lcap)[:n.llen]
}

// attrs and kids split the content list, each capped at its own end, so
// appending to either reallocates instead of writing into the list.
func (n *Node) attrs() []*Node { return unsafe.Slice(n.lp, n.nattr) }
func (n *Node) kids() []*Node  { return unsafe.Slice(n.lp, n.llen)[n.nattr:] }

// setList makes l n's content list, its first nattr entries attributes.
func (n *Node) setList(l []*Node, nattr int) {
	if cap(l) > math.MaxUint32 {
		panic("xmltree: content list longer than 2^32-1")
	}
	n.lp, n.llen, n.lcap, n.nattr = nil, uint32(len(l)), uint32(cap(l)), uint32(nattr)
	if cap(l) > 0 {
		n.lp = unsafe.SliceData(l)
	}
}

// source returns the node whose list a lazy clone reads, or nil when n is
// solid. The cow word is loaded first: a non-nil word with flagIndexed set
// is an index box, and the flag is always set before the box is published.
func (n *Node) source() *Node {
	p := atomic.LoadPointer(&n.cow)
	if p == nil || n.flags.Load()&flagIndexed != 0 {
		return nil
	}
	return (*Node)(p)
}

// cowMu serializes materialization so concurrent readers of a shared lazy
// tree materialize each node exactly once. The critical section is one level
// of one node, entered only by a reader that found the node still lazy.
var cowMu sync.Mutex

// materialize ensures n's content list is its own: if n is a lazy clone,
// one level of the source is copied into fresh lazy stubs. Safe for
// concurrent callers; one atomic load for a node whose cow word is empty.
func (n *Node) materialize() {
	if atomic.LoadPointer(&n.cow) != nil {
		n.materializeSlow()
	}
}

func (n *Node) materializeSlow() {
	if n.flags.Load()&flagIndexed != 0 {
		return // the word is an index box: n is solid
	}
	cowMu.Lock()
	defer cowMu.Unlock()
	src := n.source()
	if src == nil {
		return // lost the race; another goroutine materialized n
	}
	// src is solid and frozen: its list is stable.
	if l := src.list(); len(l) > 0 {
		out := make([]*Node, len(l))
		for i, k := range l {
			out[i] = newStub(k, n)
		}
		n.setList(out, int(src.nattr))
	}
	obs.Default().Sharing.CowBreaks.Add(1)
	// Release-store publishes the list to concurrent fast-path readers.
	atomic.StorePointer(&n.cow, nil)
}

// newStub builds the one-level lazy copy of source node k under parent p.
// Non-container kinds are complete immediately (their content is scalar);
// containers with content defer to k (or to k's own source when k is itself
// still lazy, keeping every source pointer one hop from a solid node).
func newStub(k *Node, p *Node) *Node {
	c := &Node{Kind: k.Kind, Name: k.Name, Data: k.Data, Parent: p}
	c.shareFrom(k)
	return c
}

// shareFrom makes c, a fresh node nobody else has seen, a lazy clone of k's
// content, unless k is not a container or has no content to share, and
// reports whether it did.
func (c *Node) shareFrom(k *Node) bool {
	if k.Kind != ElementNode && k.Kind != DocumentNode {
		return false
	}
	solid := k
	if s := k.source(); s != nil {
		solid = s
	}
	if solid.llen == 0 {
		return false // childless container: nothing left to copy
	}
	solid.setFlag(flagShared)
	atomic.StorePointer(&c.cow, unsafe.Pointer(solid))
	return true
}

// solidView returns the node whose content list holds n's logical content
// without materializing n: n itself when solid, otherwise its source.
// Callers must treat the result as read-only and must not leak its child
// pointers as if they belonged to n's tree (identity differs).
func (n *Node) solidView() *Node {
	if s := n.source(); s != nil {
		return s
	}
	return n
}

// NewDocument returns an empty document node.
func NewDocument() *Node { return &Node{Kind: DocumentNode} }

// NewElement returns a parentless element node with the given name.
func NewElement(name string) *Node { return &Node{Kind: ElementNode, Name: name} }

// NewText returns a parentless text node with the given content.
func NewText(data string) *Node { return &Node{Kind: TextNode, Data: data} }

// NewComment returns a parentless comment node.
func NewComment(data string) *Node { return &Node{Kind: CommentNode, Data: data} }

// NewAttr returns a free-standing attribute node. Free-standing attribute
// nodes are first-class values in XQuery (`attribute a {1}`) and are the
// source of the paper's attribute-folding behaviors.
func NewAttr(name, value string) *Node {
	return &Node{Kind: AttributeNode, Name: name, Data: value}
}

// NewPI returns a parentless processing-instruction node.
func NewPI(target, data string) *Node { return &Node{Kind: PINode, Name: target, Data: data} }

// Children returns the node's content list (empty for non-containers),
// materializing a lazy clone first. The returned slice is the node's own
// backing store, capped at its end: treat it as read-only and use the
// mutation methods (AppendChild, SetContent, ...) to change structure;
// mutating the nodes inside it is fine.
func (n *Node) Children() []*Node {
	// materialize, written out: it keeps Children within the inliner's budget.
	if atomic.LoadPointer(&n.cow) != nil {
		n.materializeSlow()
	}
	return n.kids()
}

// Attrs returns the element's attribute nodes, materializing a lazy clone
// first. Same aliasing rules as Children.
func (n *Node) Attrs() []*Node {
	n.materialize()
	return n.attrs()
}

func (n *Node) mustContain() {
	if n.Kind != ElementNode && n.Kind != DocumentNode {
		panic(fmt.Sprintf("xmltree: %v cannot have children", n.Kind))
	}
}

// AppendChild appends c to n's content and sets its parent. It panics if n
// cannot have children or if c is an attribute node (attributes are attached
// with SetAttr, never as children).
func (n *Node) AppendChild(c *Node) {
	n.mustContain()
	if c.Kind == AttributeNode {
		panic("xmltree: attribute node appended as child; use SetAttr")
	}
	n.materialize()
	c.Parent = n
	n.setList(append(n.list(), c), int(n.nattr))
}

// SetContent replaces n's attributes and children with attrs and kids,
// re-parenting each one. It allocates n's one content list once, or adopts
// a list as given: attrs or kids when the other is empty, attrs extended
// over kids when kids directly follows attrs in one array. Which of two
// same-named attributes survives is the caller's rule. It panics if n
// cannot have children, if an attribute is given for a document, or if
// either list holds a node of the other kind.
func (n *Node) SetContent(attrs, kids []*Node) {
	n.mustContain()
	if len(attrs) > 0 && n.Kind != ElementNode {
		panic(fmt.Sprintf("xmltree: %v cannot have attributes", n.Kind))
	}
	n.materialize()
	for _, a := range attrs {
		if a.Kind != AttributeNode {
			panic(fmt.Sprintf("xmltree: %v in an attribute list", a.Kind))
		}
		a.Parent = n
	}
	for _, c := range kids {
		if c.Kind == AttributeNode {
			panic("xmltree: attribute node appended as child; use SetAttr")
		}
		c.Parent = n
	}
	switch {
	case len(attrs) == 0:
		n.setList(kids, 0)
	case len(kids) == 0:
		n.setList(attrs, len(attrs))
	case len(attrs)+len(kids) <= cap(attrs) && &attrs[:len(attrs)+1][len(attrs)] == &kids[0]:
		n.setList(attrs[:len(attrs)+len(kids)], len(attrs))
	default:
		l := make([]*Node, len(attrs)+len(kids))
		copy(l[copy(l, attrs):], kids)
		n.setList(l, len(attrs))
	}
}

// SetChildren replaces n's children with kids, re-parenting each one and
// keeping n's attributes. The slice is adopted, not copied, when n has no
// attributes.
func (n *Node) SetChildren(kids []*Node) {
	n.SetContent(n.Attrs(), kids)
}

// InsertChildAt inserts c at index i of n's children (0 ≤ i ≤ len).
func (n *Node) InsertChildAt(i int, c *Node) {
	n.materialize()
	if i < 0 || i > int(n.llen-n.nattr) {
		panic(fmt.Sprintf("xmltree: InsertChildAt index %d out of range [0,%d]", i, n.llen-n.nattr))
	}
	c.Parent = n
	at := int(n.nattr) + i
	l := append(n.list(), nil)
	copy(l[at+1:], l[at:])
	l[at] = c
	n.setList(l, int(n.nattr))
}

// ReplaceChildAt replaces the child at index i with c and returns the old child.
func (n *Node) ReplaceChildAt(i int, c *Node) *Node {
	kids := n.Children()
	old := kids[i]
	old.Parent = nil
	c.Parent = n
	kids[i] = c
	return old
}

// ChildIndex returns the index of c in n's children, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, k := range n.Children() {
		if k == c {
			return i
		}
	}
	return -1
}

// SetAttr sets attribute name to value on element n, replacing any existing
// attribute of the same name, and returns the attribute node.
func (n *Node) SetAttr(name, value string) *Node {
	if n.Kind != ElementNode {
		panic("xmltree: SetAttr on non-element")
	}
	for _, a := range n.Attrs() {
		if a.Name == name {
			a.Data = value
			return a
		}
	}
	a := NewAttr(name, value)
	n.addAttr(a)
	return a
}

// AttachAttr attaches an existing free-standing attribute node to element n.
// If an attribute with the same name exists it is replaced and returned;
// otherwise AttachAttr returns nil.
func (n *Node) AttachAttr(a *Node) *Node {
	if n.Kind != ElementNode || a.Kind != AttributeNode {
		panic("xmltree: AttachAttr kind mismatch")
	}
	for i, old := range n.Attrs() {
		if old.Name == a.Name {
			a.Parent = n
			n.list()[i] = a
			old.Parent = nil
			return old
		}
	}
	n.addAttr(a)
	return nil
}

// addAttr appends a to materialized element n's attributes. With no
// children that is an append to the list; with children it builds a new
// list, so a Children slice a caller holds keeps its contents.
func (n *Node) addAttr(a *Node) {
	a.Parent = n
	l, na := n.list(), int(n.nattr)
	if na == len(l) {
		n.setList(append(l, a), na+1)
		return
	}
	out := make([]*Node, len(l)+1)
	copy(out, l[:na])
	out[na] = a
	copy(out[na+1:], l[na:])
	n.setList(out, na+1)
}

// Attr returns the string value of the named attribute and whether it exists.
// Reading an attribute value does not materialize a lazy clone.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.solidView().attrs() {
		if a.Name == name {
			return a.Data, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute's value, or def if absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// Root returns the topmost ancestor of n (the node itself if parentless).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Document returns the owning document node, or nil if the tree is not
// rooted in a document.
func (n *Node) Document() *Node {
	r := n.Root()
	if r.Kind == DocumentNode {
		return r
	}
	return nil
}

// DocumentElement returns the first element child of a document node, or nil.
func (n *Node) DocumentElement() *Node {
	for _, c := range n.Children() {
		if c.Kind == ElementNode {
			return c
		}
	}
	return nil
}

// StringValue returns the node's string value per the XQuery data model:
// concatenated descendant text for documents and elements, the literal value
// for attributes, text, comments and PIs. It never materializes lazy clones
// (the string value of shared content is the source's).
func (n *Node) StringValue() string {
	switch n.Kind {
	case DocumentNode, ElementNode:
		v := n.solidView()
		if v.llen == v.nattr {
			return ""
		}
		var b strings.Builder
		v.appendText(&b)
		return b.String()
	default:
		return n.Data
	}
}

// IndexCacheable reports whether this node may anchor a subtree-level cache:
// the node must itself be solid (not a lazy clone — a clone's materialized
// descendants are fresh identities, so a structure built over the source
// would hand out the wrong nodes) and shared (frozen, so the subtree can no
// longer legally change underneath the cache).
func (n *Node) IndexCacheable() bool {
	return n.flags.Load()&flagShared != 0 && n.source() == nil
}

// IndexCache returns the opaque subtree-level value stored by SetIndexCache
// on this node, or nil. It never reads through to a lazy clone's source: the
// cache is keyed on node identity, not shared content.
func (n *Node) IndexCache() any {
	if n.flags.Load()&flagIndexed == 0 {
		return nil
	}
	if p := atomic.LoadPointer(&n.cow); p != nil {
		return *(*any)(p)
	}
	return nil // flagged, box not yet published
}

// SetIndexCache stores an opaque subtree-level value (in practice the
// structural/value index) on the node. The store is silently dropped unless
// the node is IndexCacheable; the first store wins, so concurrent builders
// converge on one shared value. It returns the value now in the slot.
//
// The box goes into the copy-on-write word, which is empty on a solid node.
// flagIndexed is set first: whoever loads the box then finds the flag and
// does not take the box for a lazy clone's source.
func (n *Node) SetIndexCache(v any) any {
	if !n.IndexCacheable() {
		return v
	}
	n.setFlag(flagIndexed)
	if atomic.CompareAndSwapPointer(&n.cow, nil, unsafe.Pointer(&v)) {
		return v
	}
	return *(*any)(atomic.LoadPointer(&n.cow))
}

// Freeze declares the subtree rooted at n immutable and makes n a valid
// subtree-cache anchor (IndexCacheable): it materializes n if it is still a
// lazy clone, then marks it shared — exactly the state a Clone source ends
// up in. The caller promises not to mutate the subtree afterwards, the same
// contract Clone imposes on its source. Non-container nodes are returned
// unchanged. It returns n for chaining.
func Freeze(n *Node) *Node {
	if n.Kind != ElementNode && n.Kind != DocumentNode {
		return n
	}
	n.materialize()
	n.setFlag(flagShared)
	return n
}

func (n *Node) appendText(b *strings.Builder) {
	for _, c := range n.solidView().kids() {
		switch c.Kind {
		case TextNode:
			b.WriteString(c.Data)
		case ElementNode:
			c.appendText(b)
		}
	}
}

// LocalName returns the local part of the node's name (after any prefix).
func (n *Node) LocalName() string {
	if i := strings.IndexByte(n.Name, ':'); i >= 0 {
		return n.Name[i+1:]
	}
	return n.Name
}

// Prefix returns the namespace prefix of the node's name, or "".
func (n *Node) Prefix() string {
	if i := strings.IndexByte(n.Name, ':'); i >= 0 {
		return n.Name[:i]
	}
	return ""
}

// Clone returns a copy of the subtree rooted at n. The copy is parentless;
// all copied nodes are new identities (as required by XQuery element
// construction, which copies content).
//
// The copy is lazy: it shares the source subtree until navigated or
// mutated, and pays one level of copying per node actually touched. Clone
// freezes the source — see the package comment for the sharing contract.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
	if c.shareFrom(n) {
		obs.Default().Sharing.CowClones.Add(1)
	}
	return c
}

// CloneEager returns a fully materialized deep copy of the subtree, sharing
// nothing with the source. It exists for callers that need to mutate the
// source afterwards (which the lazy Clone contract forbids).
func (n *Node) CloneEager() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
	v := n.solidView()
	if l := v.list(); len(l) > 0 {
		out := make([]*Node, len(l))
		for i, k := range l {
			ck := k.CloneEager()
			ck.Parent = c
			out[i] = ck
		}
		c.setList(out, int(v.nattr))
	}
	return c
}

// Equal reports deep structural equality of two subtrees (kind, name, data,
// attributes in order, children in order). Node identity is ignored, and
// lazy clones compare without materializing.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Data != b.Data {
		return false
	}
	av, bv := a.solidView(), b.solidView()
	if av == bv {
		return true // shared content is equal by construction
	}
	if av.nattr != bv.nattr || av.llen != bv.llen {
		return false
	}
	bl := bv.list()
	for i, k := range av.list() {
		if !Equal(k, bl[i]) {
			return false
		}
	}
	return true
}

// Walk visits n and every descendant (attributes included, before children)
// in document order, calling f on each. If f returns false the walk stops.
// Walk hands out nodes with identity, so it materializes lazy clones as it
// descends; use the serializer or StringValue for identity-free reads.
func Walk(n *Node, f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, a := range n.Attrs() {
		if !f(a) {
			return false
		}
	}
	for _, c := range n.kids() {
		if !Walk(c, f) {
			return false
		}
	}
	return true
}

// CountNodes returns the number of nodes in the subtree (attributes
// included). It reads through shared structure without materializing.
func CountNodes(n *Node) int {
	count := 1
	v := n.solidView()
	count += int(v.nattr)
	for _, c := range v.kids() {
		count += CountNodes(c)
	}
	return count
}
