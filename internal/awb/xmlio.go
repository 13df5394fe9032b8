package awb

import (
	"fmt"
	"io"
	"strings"

	"lopsided/internal/xmltree"
)

// This file implements AWB's "nice, clean XML format" — the interchange
// format the paper's document generator consumed, and the reason the team
// could write the generator as an external program at all.
//
//	<awb-model metamodel="it-architecture">
//	  <metamodel> ... node-type / relation-type declarations ... </metamodel>
//	  <node id="N1" type="System">
//	    <property name="label">Payments</property>
//	  </node>
//	  <relation id="R2" type="has" source="N1" target="N3"/>
//	</awb-model>
//
// The metamodel is embedded so external consumers (the XQuery generator in
// particular) can resolve the type hierarchies without a side channel.

// ExportXML renders the model as an XML document node.
func (m *Model) ExportXML() *xmltree.Node {
	doc := xmltree.NewDocument()
	root := xmltree.NewElement("awb-model")
	root.SetAttr("metamodel", m.Meta.Name)
	doc.AppendChild(root)
	root.AppendChild(m.Meta.exportXML())
	for _, n := range m.Nodes() {
		en := xmltree.NewElement("node")
		en.SetAttr("id", n.ID)
		en.SetAttr("type", n.Type)
		kinds := map[string]PropKind{}
		for _, d := range m.Meta.DeclaredProperties(n.Type) {
			kinds[d.Name] = d.Kind
		}
		for _, name := range n.PropNames() {
			v, _ := n.Prop(name)
			ep := xmltree.NewElement("property")
			ep.SetAttr("name", name)
			// HTML-valued properties export as parsed markup when
			// well-formed. This mirrors the schema drift the paper
			// confesses to: AWB stored them as strings internally but
			// converted them "to XML on output", so "sometimes when the
			// schema said 'text attribute', the output of AWB had child
			// nodes instead".
			if kinds[name] == PropHTML && v != "" {
				if frag, err := xmltree.ParseFragment(v); err == nil {
					ep.SetAttr("kind", "html")
					for _, f := range frag {
						ep.AppendChild(f)
					}
					en.AppendChild(ep)
					continue
				}
			}
			if v != "" {
				ep.AppendChild(xmltree.NewText(v))
			}
			en.AppendChild(ep)
		}
		root.AppendChild(en)
	}
	for _, r := range m.Relations() {
		er := xmltree.NewElement("relation")
		er.SetAttr("id", r.ID)
		er.SetAttr("type", r.Type)
		er.SetAttr("source", r.Source.ID)
		er.SetAttr("target", r.Target.ID)
		root.AppendChild(er)
	}
	return doc
}

// ExportXMLString renders the model as indented XML text.
func (m *Model) ExportXMLString() string {
	return xmltree.Indent(m.ExportXML())
}

// topoNodeTypes orders node types parent-first (then by name) so the
// exported metamodel re-imports cleanly.
func (m *Metamodel) topoNodeTypes() []*NodeType {
	var out []*NodeType
	emitted := map[string]bool{}
	var emit func(nt *NodeType)
	emit = func(nt *NodeType) {
		if emitted[nt.Name] {
			return
		}
		if nt.Parent != "" {
			if p, ok := m.nodeTypes[nt.Parent]; ok {
				emit(p)
			}
		}
		emitted[nt.Name] = true
		out = append(out, nt)
	}
	for _, nt := range m.NodeTypes() {
		emit(nt)
	}
	return out
}

func (m *Metamodel) topoRelationTypes() []*RelationType {
	var out []*RelationType
	emitted := map[string]bool{}
	var emit func(rt *RelationType)
	emit = func(rt *RelationType) {
		if emitted[rt.Name] {
			return
		}
		if rt.Parent != "" {
			if p, ok := m.relationTypes[rt.Parent]; ok {
				emit(p)
			}
		}
		emitted[rt.Name] = true
		out = append(out, rt)
	}
	for _, rt := range m.RelationTypes() {
		emit(rt)
	}
	return out
}

func (m *Metamodel) exportXML() *xmltree.Node {
	em := xmltree.NewElement("metamodel")
	em.SetAttr("name", m.Name)
	for _, nt := range m.topoNodeTypes() {
		ent := xmltree.NewElement("node-type")
		ent.SetAttr("name", nt.Name)
		if nt.Parent != "" {
			ent.SetAttr("parent", nt.Parent)
		}
		for _, p := range nt.Properties {
			ep := xmltree.NewElement("property-decl")
			ep.SetAttr("name", p.Name)
			ep.SetAttr("kind", p.Kind.String())
			if p.Recommended {
				ep.SetAttr("recommended", "true")
			}
			ent.AppendChild(ep)
		}
		em.AppendChild(ent)
	}
	for _, rt := range m.topoRelationTypes() {
		ert := xmltree.NewElement("relation-type")
		ert.SetAttr("name", rt.Name)
		if rt.Parent != "" {
			ert.SetAttr("parent", rt.Parent)
		}
		for _, ep := range rt.Endpoints {
			ee := xmltree.NewElement("endpoint")
			ee.SetAttr("source", ep.Source)
			ee.SetAttr("target", ep.Target)
			ert.AppendChild(ee)
		}
		em.AppendChild(ert)
	}
	for _, s := range m.Singletons {
		es := xmltree.NewElement("expect-singleton")
		es.SetAttr("type", s)
		em.AppendChild(es)
	}
	return em
}

// ImportXML parses a model interchange document produced by ExportXML.
func ImportXML(src string) (*Model, error) {
	doc, err := xmltree.ParseTrimmed(src)
	if err != nil {
		return nil, fmt.Errorf("awb: %w", err)
	}
	return ImportXMLDoc(doc)
}

// ImportReader parses a model interchange document incrementally from r,
// without buffering the whole input into a string first.
func ImportReader(r io.Reader) (*Model, error) {
	doc, err := xmltree.ParseReaderWith(r, xmltree.ParseOptions{TrimWhitespace: true})
	if err != nil {
		return nil, fmt.Errorf("awb: %w", err)
	}
	return ImportXMLDoc(doc)
}

// ImportXMLDoc imports a model from an already-parsed document.
func ImportXMLDoc(doc *xmltree.Node) (*Model, error) {
	root := doc.DocumentElement()
	if root == nil || root.Name != "awb-model" {
		return nil, fmt.Errorf("awb: root element is not <awb-model>")
	}
	meta := NewMetamodel(root.AttrOr("metamodel", "unnamed"))
	model := NewModel(meta)
	maxID := 0
	note := func(id string) {
		var n int
		if _, err := fmt.Sscanf(id, "N%d", &n); err == nil && n > maxID {
			maxID = n
		}
		if _, err := fmt.Sscanf(id, "R%d", &n); err == nil && n > maxID {
			maxID = n
		}
	}
	for _, child := range root.Children() {
		if child.Kind != xmltree.ElementNode {
			continue
		}
		switch child.Name {
		case "metamodel":
			if err := importMetamodel(meta, child); err != nil {
				return nil, err
			}
		case "node":
			id, ok := child.Attr("id")
			if !ok {
				return nil, fmt.Errorf("awb: <node> without id")
			}
			if _, dup := model.Node(id); dup {
				return nil, fmt.Errorf("awb: duplicate node id %q", id)
			}
			n := model.AddNodeWithID(id, child.AttrOr("type", "Entity"))
			note(id)
			for _, pc := range child.Children() {
				if pc.Kind != xmltree.ElementNode || pc.Name != "property" {
					continue
				}
				name, ok := pc.Attr("name")
				if !ok {
					return nil, fmt.Errorf("awb: <property> without name on node %s", id)
				}
				n.SetProp(name, propValueFromXML(pc))
			}
		case "relation":
			id := child.AttrOr("id", "")
			src, ok1 := child.Attr("source")
			tgt, ok2 := child.Attr("target")
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("awb: <relation %s> missing source/target", id)
			}
			sn, ok := model.Node(src)
			if !ok {
				return nil, fmt.Errorf("awb: relation %s references unknown source %q", id, src)
			}
			tn, ok := model.Node(tgt)
			if !ok {
				return nil, fmt.Errorf("awb: relation %s references unknown target %q", id, tgt)
			}
			model.ConnectWithID(id, child.AttrOr("type", "related-to"), sn, tn)
			note(id)
		default:
			return nil, fmt.Errorf("awb: unexpected element <%s> in model", child.Name)
		}
	}
	model.nextID = maxID
	return model, nil
}

func importMetamodel(meta *Metamodel, em *xmltree.Node) error {
	for _, child := range em.Children() {
		if child.Kind != xmltree.ElementNode {
			continue
		}
		switch child.Name {
		case "node-type":
			var props []PropertyDecl
			for _, pc := range child.Children() {
				if pc.Kind != xmltree.ElementNode || pc.Name != "property-decl" {
					continue
				}
				kind, err := ParsePropKind(pc.AttrOr("kind", "string"))
				if err != nil {
					return err
				}
				props = append(props, PropertyDecl{
					Name:        pc.AttrOr("name", ""),
					Kind:        kind,
					Recommended: pc.AttrOr("recommended", "") == "true",
				})
			}
			if _, err := meta.DefineNodeType(child.AttrOr("name", ""), child.AttrOr("parent", ""), props...); err != nil {
				return err
			}
		case "relation-type":
			var eps []Endpoint
			for _, ec := range child.Children() {
				if ec.Kind != xmltree.ElementNode || ec.Name != "endpoint" {
					continue
				}
				eps = append(eps, Endpoint{Source: ec.AttrOr("source", ""), Target: ec.AttrOr("target", "")})
			}
			if _, err := meta.DefineRelationType(child.AttrOr("name", ""), child.AttrOr("parent", ""), eps...); err != nil {
				return err
			}
		case "expect-singleton":
			meta.Singletons = append(meta.Singletons, child.AttrOr("type", ""))
		default:
			return fmt.Errorf("awb: unexpected element <%s> in metamodel", child.Name)
		}
	}
	return nil
}

// propValueFromXML recovers a property's string value: markup children
// (HTML-kind exports) serialize back to their source form; plain text
// passes through.
func propValueFromXML(p *xmltree.Node) string {
	hasElem := false
	for _, c := range p.Children() {
		if c.Kind == xmltree.ElementNode {
			hasElem = true
			break
		}
	}
	if !hasElem {
		return p.StringValue()
	}
	var b strings.Builder
	for _, c := range p.Children() {
		b.WriteString(c.String())
	}
	return b.String()
}

// Equal reports whether two models have the same nodes, properties, and
// relations (IDs, types, values — graph identity up to object pointers).
func Equal(a, b *Model) bool {
	return strings.TrimSpace(a.ExportXMLString()) == strings.TrimSpace(b.ExportXMLString())
}
