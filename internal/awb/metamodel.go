// Package awb implements the Architect's Workbench substrate the paper
// describes: a directed, annotated multigraph whose structure is defined by
// a configurable metamodel.
//
// "AWB sees the universe as a directed, annotated multigraph. The nodes of
// the graph have a type and a number of properties. The types belong to a
// single-inheritance type hierarchy (described as part of the metamodel).
// The edges of the multigraph are called relation objects, and are
// categorized into relations."
//
// Crucially, the metamodel is suggestive rather than prescriptive: users may
// add properties the metamodel doesn't mention and connect nodes the
// metamodel wouldn't, and the system responds with advisory warnings
// ("omissions"), never errors.
package awb

import (
	"fmt"
	"sort"
)

// PropKind is the scalar type of a declared property.
type PropKind int

// Property kinds. HTML-valued properties hold XML fragments serialized as
// strings (the paper's "HTML-valued biography property", and the source of
// the schema drift the paper confesses to).
const (
	PropString PropKind = iota
	PropInteger
	PropBoolean
	PropHTML
)

// String returns the kind's metamodel spelling.
func (k PropKind) String() string {
	switch k {
	case PropString:
		return "string"
	case PropInteger:
		return "integer"
	case PropBoolean:
		return "boolean"
	case PropHTML:
		return "html"
	}
	return "?"
}

// ParsePropKind parses a metamodel property-kind name.
func ParsePropKind(s string) (PropKind, error) {
	switch s {
	case "string", "":
		return PropString, nil
	case "integer":
		return PropInteger, nil
	case "boolean":
		return PropBoolean, nil
	case "html":
		return PropHTML, nil
	}
	return PropString, fmt.Errorf("awb: unknown property kind %q", s)
}

// PropertyDecl declares one property of a node type.
type PropertyDecl struct {
	Name string
	Kind PropKind
	// Recommended properties that are absent show up as omissions.
	Recommended bool
}

// NodeType is one type in the single-inheritance node hierarchy.
type NodeType struct {
	Name       string
	Parent     string // "" for a root type
	Properties []PropertyDecl
}

// Endpoint is one advisory source/target pairing for a relation type.
// "Relations generally have many choices of source and target type."
type Endpoint struct {
	Source string
	Target string
}

// RelationType is one type in the relation hierarchy (relations are
// "hierarchically typed, like nodes").
type RelationType struct {
	Name      string
	Parent    string
	Endpoints []Endpoint // advisory, not compulsory
}

// Metamodel defines what kinds of entities a workbench talks about. AWB has
// been retargeted by swapping this out — the repo ships an IT-architecture
// metamodel and the paper's antique-glass-dealer metamodel.
type Metamodel struct {
	Name          string
	nodeTypes     map[string]*NodeType
	relationTypes map[string]*RelationType
	// Singletons lists node types expected to occur exactly once per model
	// (the SystemBeingDesigned rule). Violations are advisory.
	Singletons []string
}

// NewMetamodel returns an empty metamodel.
func NewMetamodel(name string) *Metamodel {
	return &Metamodel{
		Name:          name,
		nodeTypes:     map[string]*NodeType{},
		relationTypes: map[string]*RelationType{},
	}
}

// DefineNodeType adds a node type; parent may be "" for a root type.
func (m *Metamodel) DefineNodeType(name, parent string, props ...PropertyDecl) (*NodeType, error) {
	if _, dup := m.nodeTypes[name]; dup {
		return nil, fmt.Errorf("awb: node type %q already defined", name)
	}
	if parent != "" {
		if _, ok := m.nodeTypes[parent]; !ok {
			return nil, fmt.Errorf("awb: node type %q has unknown parent %q", name, parent)
		}
	}
	nt := &NodeType{Name: name, Parent: parent, Properties: props}
	m.nodeTypes[name] = nt
	return nt, nil
}

// DefineRelationType adds a relation type; parent may be "".
func (m *Metamodel) DefineRelationType(name, parent string, endpoints ...Endpoint) (*RelationType, error) {
	if _, dup := m.relationTypes[name]; dup {
		return nil, fmt.Errorf("awb: relation type %q already defined", name)
	}
	if parent != "" {
		if _, ok := m.relationTypes[parent]; !ok {
			return nil, fmt.Errorf("awb: relation type %q has unknown parent %q", name, parent)
		}
	}
	rt := &RelationType{Name: name, Parent: parent, Endpoints: endpoints}
	m.relationTypes[name] = rt
	return rt, nil
}

// NodeType looks up a node type by name.
func (m *Metamodel) NodeType(name string) (*NodeType, bool) {
	nt, ok := m.nodeTypes[name]
	return nt, ok
}

// RelationType looks up a relation type by name.
func (m *Metamodel) RelationType(name string) (*RelationType, bool) {
	rt, ok := m.relationTypes[name]
	return rt, ok
}

// NodeTypes returns all node types sorted by name.
func (m *Metamodel) NodeTypes() []*NodeType {
	out := make([]*NodeType, 0, len(m.nodeTypes))
	for _, nt := range m.nodeTypes {
		out = append(out, nt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RelationTypes returns all relation types sorted by name.
func (m *Metamodel) RelationTypes() []*RelationType {
	out := make([]*RelationType, 0, len(m.relationTypes))
	for _, rt := range m.relationTypes {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// IsNodeSubtype reports whether typ equals or descends from ancestor in the
// node hierarchy. Unknown types have no supertypes but equal themselves
// (user-invented types are legal — the metamodel only advises).
func (m *Metamodel) IsNodeSubtype(typ, ancestor string) bool {
	if typ == ancestor {
		return true
	}
	seen := map[string]bool{}
	for cur := typ; cur != "" && !seen[cur]; {
		seen[cur] = true
		nt, ok := m.nodeTypes[cur]
		if !ok {
			return false
		}
		if nt.Parent == ancestor {
			return true
		}
		cur = nt.Parent
	}
	return false
}

// IsRelationSubtype reports whether rel equals or descends from ancestor in
// the relation hierarchy ("favors might be a subtype of likes").
func (m *Metamodel) IsRelationSubtype(rel, ancestor string) bool {
	if rel == ancestor {
		return true
	}
	seen := map[string]bool{}
	for cur := rel; cur != "" && !seen[cur]; {
		seen[cur] = true
		rt, ok := m.relationTypes[cur]
		if !ok {
			return false
		}
		if rt.Parent == ancestor {
			return true
		}
		cur = rt.Parent
	}
	return false
}

// DeclaredProperties returns the properties a node of the given type should
// have, including inherited declarations, nearest-type first.
func (m *Metamodel) DeclaredProperties(typ string) []PropertyDecl {
	var out []PropertyDecl
	seen := map[string]bool{}
	for cur := typ; cur != ""; {
		nt, ok := m.nodeTypes[cur]
		if !ok || seen[cur] {
			break
		}
		seen[cur] = true
		out = append(out, nt.Properties...)
		cur = nt.Parent
	}
	return out
}

// EndpointAdvised reports whether the metamodel suggests the relation may
// connect the given source and target node types (considering relation
// inheritance and node subtyping). A false answer is advisory only.
func (m *Metamodel) EndpointAdvised(rel, sourceType, targetType string) bool {
	seen := map[string]bool{}
	for cur := rel; cur != "" && !seen[cur]; {
		seen[cur] = true
		rt, ok := m.relationTypes[cur]
		if !ok {
			return false
		}
		for _, ep := range rt.Endpoints {
			if m.IsNodeSubtype(sourceType, ep.Source) && m.IsNodeSubtype(targetType, ep.Target) {
				return true
			}
		}
		cur = rt.Parent
	}
	return false
}
