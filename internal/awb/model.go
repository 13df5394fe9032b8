package awb

import (
	"fmt"
	"sort"
)

// Node is one node of the model multigraph: a typed entity with scalar
// properties. Users may set properties the metamodel never declared
// ("a user can add a new property to a particular node").
type Node struct {
	ID   string
	Type string
	// props holds property values as strings; declared kinds govern
	// interpretation, not storage (mirroring AWB's internal representation,
	// which kept even XML-valued attributes as Java Strings).
	props map[string]string
	// propOrder preserves insertion order for deterministic export.
	propOrder []string
}

// SetProp sets a property value.
func (n *Node) SetProp(name, value string) {
	if _, exists := n.props[name]; !exists {
		n.propOrder = append(n.propOrder, name)
	}
	n.props[name] = value
}

// Prop returns a property value and whether it is set.
func (n *Node) Prop(name string) (string, bool) {
	v, ok := n.props[name]
	return v, ok
}

// PropNames returns the node's property names in insertion order.
func (n *Node) PropNames() []string {
	return append([]string(nil), n.propOrder...)
}

// Label returns the node's display label: the "label" property, else the
// "name" property, else its ID.
func (n *Node) Label() string {
	if v, ok := n.props["label"]; ok {
		return v
	}
	if v, ok := n.props["name"]; ok {
		return v
	}
	return n.ID
}

// Relation is one edge of the multigraph — a relation object. Relation
// objects have properties like nodes, "though little AWB software takes
// advantage of the fact".
type Relation struct {
	ID     string
	Type   string
	Source *Node
	Target *Node
	props  map[string]string
}

// SetProp sets a property on the relation object.
func (r *Relation) SetProp(name, value string) { r.props[name] = value }

// Prop returns a relation property.
func (r *Relation) Prop(name string) (string, bool) {
	v, ok := r.props[name]
	return v, ok
}

// Model is one AWB model: the graph plus its governing (advisory) metamodel.
type Model struct {
	Meta      *Metamodel
	nodes     map[string]*Node
	nodeOrder []string
	relations []*Relation
	nextID    int
}

// NewModel returns an empty model over the metamodel.
func NewModel(meta *Metamodel) *Model {
	return &Model{Meta: meta, nodes: map[string]*Node{}}
}

// NewNode creates a node of the given type with a fresh ID. The type need
// not be declared in the metamodel (advisory only).
func (m *Model) NewNode(typ string) *Node {
	m.nextID++
	return m.addNode(fmt.Sprintf("N%d", m.nextID), typ)
}

// AddNodeWithID creates a node with an explicit ID (import path); it panics
// on duplicate IDs, which only a corrupted interchange file can produce.
func (m *Model) AddNodeWithID(id, typ string) *Node {
	if _, dup := m.nodes[id]; dup {
		panic(fmt.Sprintf("awb: duplicate node ID %q", id))
	}
	return m.addNode(id, typ)
}

func (m *Model) addNode(id, typ string) *Node {
	n := &Node{ID: id, Type: typ, props: map[string]string{}}
	m.nodes[id] = n
	m.nodeOrder = append(m.nodeOrder, id)
	return n
}

// Node returns a node by ID.
func (m *Model) Node(id string) (*Node, bool) {
	n, ok := m.nodes[id]
	return n, ok
}

// Nodes returns all nodes in creation order.
func (m *Model) Nodes() []*Node {
	out := make([]*Node, 0, len(m.nodeOrder))
	for _, id := range m.nodeOrder {
		out = append(out, m.nodes[id])
	}
	return out
}

// NodesOfType returns nodes whose type equals or descends from typ, in
// creation order.
func (m *Model) NodesOfType(typ string) []*Node {
	var out []*Node
	for _, id := range m.nodeOrder {
		n := m.nodes[id]
		if m.Meta.IsNodeSubtype(n.Type, typ) {
			out = append(out, n)
		}
	}
	return out
}

// Connect adds a relation object between two nodes. The endpoint types are
// advisory: any connection is legal ("the user can make a Person use a
// Program, even if the metamodel prefers" otherwise).
func (m *Model) Connect(relType string, source, target *Node) *Relation {
	m.nextID++
	r := &Relation{
		ID:     fmt.Sprintf("R%d", m.nextID),
		Type:   relType,
		Source: source,
		Target: target,
		props:  map[string]string{},
	}
	m.relations = append(m.relations, r)
	return r
}

// ConnectWithID adds a relation with an explicit ID (import path).
func (m *Model) ConnectWithID(id, relType string, source, target *Node) *Relation {
	r := &Relation{ID: id, Type: relType, Source: source, Target: target, props: map[string]string{}}
	m.relations = append(m.relations, r)
	return r
}

// Relations returns all relation objects in creation order.
func (m *Model) Relations() []*Relation {
	return append([]*Relation(nil), m.relations...)
}

// Outgoing returns the targets of relations of the given type (or its
// subtypes) leaving n, in creation order.
func (m *Model) Outgoing(n *Node, relType string) []*Node {
	var out []*Node
	for _, r := range m.relations {
		if r.Source == n && m.Meta.IsRelationSubtype(r.Type, relType) {
			out = append(out, r.Target)
		}
	}
	return out
}

// Incoming returns the sources of relations of the given type (or its
// subtypes) arriving at n, in creation order.
func (m *Model) Incoming(n *Node, relType string) []*Node {
	var out []*Node
	for _, r := range m.relations {
		if r.Target == n && m.Meta.IsRelationSubtype(r.Type, relType) {
			out = append(out, r.Source)
		}
	}
	return out
}

// SortNodesByLabel sorts a node slice by label (then ID for stability) in
// place and returns it.
func SortNodesByLabel(nodes []*Node) []*Node {
	sort.SliceStable(nodes, func(i, j int) bool {
		li, lj := nodes[i].Label(), nodes[j].Label()
		if li != lj {
			return li < lj
		}
		return nodes[i].ID < nodes[j].ID
	})
	return nodes
}

// DedupNodes removes duplicate nodes (by identity) preserving first
// occurrence — the "collect the results into a set without duplicates"
// operation at the heart of the AWB query calculus.
func DedupNodes(nodes []*Node) []*Node {
	seen := make(map[*Node]bool, len(nodes))
	out := nodes[:0:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Stats summarizes a model for logging and benchmarks.
type Stats struct {
	Nodes     int
	Relations int
}

// Stats returns the model's size.
func (m *Model) Stats() Stats {
	return Stats{Nodes: len(m.nodes), Relations: len(m.relations)}
}
