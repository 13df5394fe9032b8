package awb

import (
	"strings"
	"testing"
)

// personMeta builds a small metamodel echoing the paper's examples:
// Person nodes with likes/favors relations, Systems with has.
func personMeta(t *testing.T) *Metamodel {
	t.Helper()
	m := NewMetamodel("test")
	mustNT := func(name, parent string, props ...PropertyDecl) {
		if _, err := m.DefineNodeType(name, parent, props...); err != nil {
			t.Fatal(err)
		}
	}
	mustRT := func(name, parent string, eps ...Endpoint) {
		if _, err := m.DefineRelationType(name, parent, eps...); err != nil {
			t.Fatal(err)
		}
	}
	mustNT("Entity", "")
	mustNT("Person", "Entity",
		PropertyDecl{Name: "firstName", Kind: PropString},
		PropertyDecl{Name: "lastName", Kind: PropString, Recommended: true},
		PropertyDecl{Name: "birthYear", Kind: PropInteger},
		PropertyDecl{Name: "biography", Kind: PropHTML},
	)
	mustNT("Superuser", "Person")
	mustNT("System", "Entity")
	mustNT("SystemBeingDesigned", "System")
	mustNT("Program", "Entity")
	mustRT("related-to", "")
	mustRT("likes", "related-to", Endpoint{Source: "Person", Target: "Person"})
	mustRT("favors", "likes")
	mustRT("has", "related-to", Endpoint{Source: "System", Target: "Entity"})
	mustRT("uses", "related-to",
		Endpoint{Source: "Person", Target: "System"},
		Endpoint{Source: "System", Target: "Program"})
	m.Singletons = []string{"SystemBeingDesigned"}
	return m
}

func TestMetamodelHierarchy(t *testing.T) {
	m := personMeta(t)
	if !m.IsNodeSubtype("Superuser", "Person") || !m.IsNodeSubtype("Superuser", "Entity") {
		t.Fatal("node subtyping")
	}
	if !m.IsNodeSubtype("Person", "Person") {
		t.Fatal("reflexive")
	}
	if m.IsNodeSubtype("Person", "Superuser") {
		t.Fatal("inverted subtyping")
	}
	if m.IsNodeSubtype("NoSuch", "Entity") {
		t.Fatal("unknown type has no supertypes")
	}
	if !m.IsNodeSubtype("NoSuch", "NoSuch") {
		t.Fatal("unknown type equals itself")
	}
	// favors is a subtype of likes — the paper's example.
	if !m.IsRelationSubtype("favors", "likes") {
		t.Fatal("relation subtyping")
	}
}

func TestMetamodelDuplicatesAndUnknownParents(t *testing.T) {
	m := NewMetamodel("x")
	if _, err := m.DefineNodeType("A", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineNodeType("A", ""); err == nil {
		t.Fatal("duplicate node type should fail")
	}
	if _, err := m.DefineNodeType("B", "NoSuch"); err == nil {
		t.Fatal("unknown parent should fail")
	}
	if _, err := m.DefineRelationType("r", "missing"); err == nil {
		t.Fatal("unknown relation parent should fail")
	}
}

func TestDeclaredPropertiesInherited(t *testing.T) {
	m := personMeta(t)
	props := m.DeclaredProperties("Superuser")
	names := make([]string, len(props))
	for i, p := range props {
		names[i] = p.Name
	}
	want := "firstName lastName birthYear biography"
	if strings.Join(names, " ") != want {
		t.Fatalf("inherited properties = %v", names)
	}
}

func TestModelBasics(t *testing.T) {
	m := NewModel(personMeta(t))
	alice := m.NewNode("Person")
	alice.SetProp("label", "Alice")
	bob := m.NewNode("Superuser")
	bob.SetProp("label", "Bob")
	m.Connect("likes", alice, bob)
	m.Connect("favors", bob, alice)

	if got := len(m.NodesOfType("Person")); got != 2 {
		t.Fatalf("NodesOfType(Person) = %d", got)
	}
	if got := len(m.NodesOfType("Superuser")); got != 1 {
		t.Fatalf("NodesOfType(Superuser) = %d", got)
	}
	// Outgoing over likes includes favors (subtype).
	if got := m.Outgoing(bob, "likes"); len(got) != 1 || got[0] != alice {
		t.Fatalf("Outgoing favors-as-likes = %v", got)
	}
	if got := m.Incoming(bob, "likes"); len(got) != 1 || got[0] != alice {
		t.Fatal("Incoming")
	}
	if alice.Label() != "Alice" {
		t.Fatal("label")
	}
	n := m.NewNode("Person")
	if n.Label() != n.ID {
		t.Fatal("label falls back to ID")
	}
	n.SetProp("name", "Named")
	if n.Label() != "Named" {
		t.Fatal("label falls back to name property")
	}
	if _, ok := m.Node(alice.ID); !ok {
		t.Fatal("Node lookup")
	}
	st := m.Stats()
	if st.Nodes != 3 || st.Relations != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUserOverridesAreLegal(t *testing.T) {
	// "A user can add a new property to a particular node" and "make a
	// Person use a Program" — both must be accepted, warnings only.
	m := NewModel(personMeta(t))
	p := m.NewNode("Person")
	p.SetProp("middleName", "Q") // undeclared property
	prog := m.NewNode("Program")
	m.Connect("uses", p, prog) // metamodel suggests Person uses System

	adv := m.Validate()
	var haveUndeclared, haveMismatch bool
	for _, a := range adv {
		switch a.Code {
		case CodeUndeclaredProp:
			haveUndeclared = true
			if a.Severity != Info {
				t.Fatal("user-added property should be Info")
			}
		case CodeEndpointMismatch:
			haveMismatch = true
			if a.Severity != Warning {
				t.Fatal("endpoint mismatch should be Warning")
			}
		}
	}
	if !haveUndeclared || !haveMismatch {
		t.Fatalf("advisories = %+v", adv)
	}
}

func TestSingletonAdvisories(t *testing.T) {
	m := NewModel(personMeta(t))
	adv := m.Validate()
	if !hasCode(adv, CodeSingletonMissing) {
		t.Fatal("missing SystemBeingDesigned should warn")
	}
	m.NewNode("SystemBeingDesigned")
	if adv := m.Validate(); hasCode(adv, CodeSingletonMissing) || hasCode(adv, CodeSingletonMultiple) {
		t.Fatal("exactly one should be quiet")
	}
	m.NewNode("SystemBeingDesigned")
	if adv := m.Validate(); !hasCode(adv, CodeSingletonMultiple) {
		t.Fatal("two should warn")
	}
}

func TestValidatePropertyKindsAndMissing(t *testing.T) {
	m := NewModel(personMeta(t))
	p := m.NewNode("Person")
	p.SetProp("birthYear", "not-a-year")
	adv := m.Validate()
	if !hasCode(adv, CodeBadPropertyValue) {
		t.Fatal("bad integer should warn")
	}
	if !hasCode(adv, CodeMissingProperty) {
		t.Fatal("missing recommended lastName should warn")
	}
	p.SetProp("birthYear", "1970")
	p.SetProp("lastName", "Smith")
	adv = m.Validate()
	if hasCode(adv, CodeBadPropertyValue) || hasCode(adv, CodeMissingProperty) {
		t.Fatalf("fixed node still warns: %+v", adv)
	}
	// Unknown node and relation types are Info.
	x := m.NewNode("Invented")
	m.Connect("invented-rel", x, p)
	adv = m.Validate()
	if !hasCode(adv, CodeUnknownType) || !hasCode(adv, CodeUnknownRelation) {
		t.Fatal("unknown types should be advised")
	}
}

func hasCode(adv []Advisory, code string) bool {
	for _, a := range adv {
		if a.Code == code {
			return true
		}
	}
	return false
}

func TestSortAndDedup(t *testing.T) {
	m := NewModel(personMeta(t))
	a := m.NewNode("Person")
	a.SetProp("label", "zeta")
	b := m.NewNode("Person")
	b.SetProp("label", "alpha")
	c := m.NewNode("Person")
	c.SetProp("label", "alpha")
	sorted := SortNodesByLabel([]*Node{a, b, c})
	if sorted[0] != b || sorted[1] != c || sorted[2] != a {
		t.Fatal("sort by label then ID")
	}
	d := DedupNodes([]*Node{a, b, a, c, b})
	if len(d) != 3 || d[0] != a || d[1] != b || d[2] != c {
		t.Fatalf("dedup = %v", d)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	m := NewModel(personMeta(t))
	alice := m.NewNode("Person")
	alice.SetProp("label", "Alice")
	alice.SetProp("biography", "<p>Hello &amp; welcome</p>")
	sys := m.NewNode("SystemBeingDesigned")
	sys.SetProp("label", "Payments")
	m.Connect("uses", alice, sys)

	out := m.ExportXMLString()
	back, err := ImportXML(out)
	if err != nil {
		t.Fatalf("import: %v\n%s", err, out)
	}
	if !Equal(m, back) {
		t.Fatalf("round trip mismatch:\n%s\n----\n%s", out, back.ExportXMLString())
	}
	// Metamodel survived: subtype queries work on the imported model.
	if !back.Meta.IsRelationSubtype("favors", "likes") {
		t.Fatal("imported metamodel lost hierarchy")
	}
	// New nodes after import do not collide with imported IDs.
	n := back.NewNode("Person")
	if _, clash := m.Node(n.ID); n.ID == alice.ID || n.ID == sys.ID {
		t.Fatalf("ID collision after import: %v %v", n.ID, clash)
	}
}

func TestImportErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"wrong root", `<not-a-model/>`},
		{"node no id", `<awb-model><node type="X"/></awb-model>`},
		{"dup node id", `<awb-model><node id="N1" type="X"/><node id="N1" type="X"/></awb-model>`},
		{"rel missing source", `<awb-model><relation id="R1" target="N1"/></awb-model>`},
		{"rel unknown node", `<awb-model><relation id="R1" source="N9" target="N8"/></awb-model>`},
		{"bad element", `<awb-model><mystery/></awb-model>`},
		{"prop no name", `<awb-model><node id="N1" type="X"><property>v</property></node></awb-model>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ImportXML(c.src); err == nil {
				t.Fatalf("ImportXML(%q) should fail", c.src)
			}
		})
	}
}

func TestEndpointAdvisedInheritance(t *testing.T) {
	m := personMeta(t)
	// favors inherits likes' endpoints.
	if !m.EndpointAdvised("favors", "Person", "Person") {
		t.Fatal("inherited endpoints")
	}
	// Subtype sources satisfy endpoints: Superuser is a Person.
	if !m.EndpointAdvised("likes", "Superuser", "Person") {
		t.Fatal("subtype sources")
	}
	if m.EndpointAdvised("likes", "System", "Person") {
		t.Fatal("unrelated source should not be advised")
	}
	if m.EndpointAdvised("nonexistent", "Person", "Person") {
		t.Fatal("unknown relation")
	}
}
