package xmltree

import (
	"strings"
	"testing"
)

// axesDoc builds the fixture:
//
//	<r>
//	  <a id="a"><aa/><ab><aba/></ab></a>
//	  <b id="b"/>
//	  <c id="c"><ca/></c>
//	</r>
func axesDoc() (*Node, map[string]*Node) {
	doc := MustParse(`<r><a id="a"><aa/><ab><aba/></ab></a><b id="b"/><c id="c"><ca/></c></r>`)
	byName := map[string]*Node{}
	Walk(doc, func(n *Node) bool {
		if n.Kind == ElementNode {
			byName[n.Name] = n
		}
		return true
	})
	byName["#doc"] = doc
	return doc, byName
}

func names(ns []*Node) string {
	var out []string
	for _, n := range ns {
		switch n.Kind {
		case ElementNode, AttributeNode:
			out = append(out, n.Name)
		case DocumentNode:
			out = append(out, "#doc")
		case TextNode:
			out = append(out, "#text")
		default:
			out = append(out, n.Kind.String())
		}
	}
	return strings.Join(out, " ")
}

func TestAxes(t *testing.T) {
	_, m := axesDoc()
	tests := []struct {
		axis string
		fn   func(*Node) []*Node
		from string
		want string
	}{
		{"child", ChildAxis, "r", "a b c"},
		{"child of leaf", ChildAxis, "aa", ""},
		{"attribute", AttributeAxis, "a", "id"},
		{"parent", ParentAxis, "ab", "a"},
		{"parent of root el", ParentAxis, "r", "#doc"},
		{"self", SelfAxis, "b", "b"},
		{"descendant", DescendantAxis, "a", "aa ab aba"},
		{"descendant-or-self", DescendantOrSelfAxis, "a", "a aa ab aba"},
		{"ancestor", AncestorAxis, "aba", "ab a r #doc"},
		{"ancestor-or-self", AncestorOrSelfAxis, "aba", "aba ab a r #doc"},
		{"following-sibling", FollowingSiblingAxis, "a", "b c"},
		{"following-sibling of last", FollowingSiblingAxis, "c", ""},
		{"preceding-sibling", PrecedingSiblingAxis, "c", "b a"},
		{"preceding-sibling of first", PrecedingSiblingAxis, "a", ""},
		{"following", FollowingAxis, "ab", "b c ca"},
		{"following from deep", FollowingAxis, "aba", "b c ca"},
		{"preceding", PrecedingAxis, "ca", "b aba ab aa a"},
		{"preceding from b", PrecedingAxis, "b", "aba ab aa a"},
	}
	for _, tt := range tests {
		t.Run(tt.axis, func(t *testing.T) {
			got := names(tt.fn(m[tt.from]))
			if got != tt.want {
				t.Errorf("%s(%s) = %q, want %q", tt.axis, tt.from, got, tt.want)
			}
		})
	}
}

func TestAxesOnNonContainers(t *testing.T) {
	txt := NewText("t")
	if ChildAxis(txt) != nil || AttributeAxis(txt) != nil {
		t.Fatal("text node should have no children/attrs")
	}
	if ParentAxis(txt) != nil {
		t.Fatal("parentless text should have no parent axis")
	}
}

func TestSiblingAxesOnAttributes(t *testing.T) {
	doc := MustParse(`<a x="1" y="2"/>`)
	x := doc.DocumentElement().Attrs()[0]
	if FollowingSiblingAxis(x) != nil || PrecedingSiblingAxis(x) != nil {
		t.Fatal("attributes have no siblings in XPath")
	}
}

func TestFollowingPrecedingExcludeAncestorsDescendants(t *testing.T) {
	_, m := axesDoc()
	for _, n := range FollowingAxis(m["a"]) {
		if n == m["aa"] || n == m["aba"] {
			t.Fatal("following axis included a descendant")
		}
	}
	for _, n := range PrecedingAxis(m["aba"]) {
		if n == m["ab"] || n == m["a"] || n == m["r"] {
			t.Fatal("preceding axis included an ancestor")
		}
	}
}
