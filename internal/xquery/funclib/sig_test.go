package funclib

// A built-in's row is a soundness contract consumed by the shapes pass, the
// projection analysis and the access-path planner: an over-promise here
// (Total on a function that can raise, an occurrence narrower than reality,
// Shell on a function that atomizes) becomes a miscompile there. rows_test.go
// holds each row to the implementation beside it; this file pins each row's
// decision — a changed or newly registered row fails until someone writes
// its facts down here on purpose.

import (
	"fmt"
	"strings"
	"testing"

	"lopsided/internal/xdm"
)

// describe renders a row's facts: occurrence, kinds, then every flag set.
func describe(f *Func) string {
	out := [...]string{"1", "?", "*", "+", "0"}[f.Occ] + " " + f.Kinds.String()
	for _, fact := range []struct {
		set  bool
		name string
	}{
		{f.NodeFree, "nf"}, {f.Total, "total"}, {f.TotalIfBounded, "bounded"},
		{len(f.Flow) > 0, "flow" + strings.ReplaceAll(fmt.Sprint(f.Flow), " ", ",")}, {f.Partial, "partial"},
		{f.Shell, "shell"}, {f.Emits, "emits"}, {f.Escapes, "escapes"},
		{f.ReadsItem, "item"}, {f.ReadsPosition, "position"},
	} {
		if fact.set {
			out += " " + fact.name
		}
	}
	return out
}

func TestSignatureTableComplete(t *testing.T) {
	// Every row, keyed by name and least arity.
	expected := map[string]string{
		"count/1":                "1 int nf total shell",
		"empty/1":                "1 bool nf total shell",
		"exists/1":               "1 bool nf total shell",
		"data/1":                 "* any nf total flow[0]",
		"distinct-values/1":      "* any nf total",
		"index-of/2":             "* int nf",
		"insert-before/3":        "* none flow[0,2]",
		"remove/2":               "* none flow[0] partial",
		"reverse/1":              "* none total flow[0]",
		"subsequence/2":          "* none bounded flow[0] partial",
		"zero-or-one/1":          "? none total flow[0]",
		"one-or-more/1":          "+ none total flow[0]",
		"exactly-one/1":          "1 none total flow[0]",
		"deep-equal/2":           "1 bool nf total",
		"sum/1":                  "1 numeric nf",
		"sum/2":                  "* any",
		"avg/1":                  "? numeric nf",
		"max/1":                  "? any nf",
		"min/1":                  "? any nf",
		"position/0":             "1 int nf position",
		"last/0":                 "1 int nf position",
		"string/0":               "1 str nf item",
		"string/1":               "1 str nf bounded",
		"concat/2":               "1 str nf bounded",
		"string-join/2":          "1 str nf bounded",
		"substring/2":            "1 str nf bounded",
		"string-length/0":        "1 int nf item",
		"string-length/1":        "1 int nf bounded",
		"normalize-space/0":      "1 str nf item",
		"normalize-space/1":      "1 str nf bounded",
		"upper-case/1":           "1 str nf bounded",
		"lower-case/1":           "1 str nf bounded",
		"translate/3":            "1 str nf bounded",
		"contains/2":             "1 bool nf bounded",
		"starts-with/2":          "1 bool nf bounded",
		"ends-with/2":            "1 bool nf bounded",
		"substring-before/2":     "1 str nf bounded",
		"substring-after/2":      "1 str nf bounded",
		"compare/2":              "? int nf bounded",
		"string-to-codepoints/1": "* int nf bounded",
		"codepoints-to-string/1": "1 str nf total",
		"matches/2":              "1 bool nf",
		"replace/3":              "1 str nf",
		"tokenize/2":             "* str nf",
		"name/0":                 "1 str nf shell item",
		"name/1":                 "1 str nf shell",
		"local-name/0":           "1 str nf shell item",
		"local-name/1":           "1 str nf shell",
		"node-name/1":            "? str nf shell",
		"root/0":                 "? none escapes item",
		"root/1":                 "? none escapes",
		"error/0":                "0 none nf",
		"trace/1":                "* none total flow[-1] emits",
		"doc/1":                  "* none",
		"true/0":                 "1 bool nf total",
		"false/0":                "1 bool nf total",
		"not/1":                  "1 bool nf bounded shell",
		"boolean/1":              "1 bool nf bounded shell",
		"number/0":               "1 dbl nf item",
		"number/1":               "1 dbl nf bounded",
		"abs/1":                  "? numeric nf",
		"ceiling/1":              "? numeric nf",
		"floor/1":                "? numeric nf",
		"round/1":                "? numeric nf",
		"round-half-to-even/1":   "? numeric nf",
	}
	seen := map[string]bool{}
	for name, rows := range registry {
		for _, f := range rows {
			key := fmt.Sprintf("%s/%d", name, f.minArgs)
			seen[key] = true
			want, ok := expected[key]
			if !ok {
				t.Errorf("row %s has no expected facts: decide them and add them to this table", key)
				continue
			}
			if got := describe(f); got != want {
				t.Errorf("row %s = %q, want %q", key, got, want)
			}
			if got, ok := Lookup(name, f.minArgs); !ok || got != f {
				t.Errorf("Lookup(%s, %d) does not answer with the row registered for it", name, f.minArgs)
			}
		}
	}
	for key := range expected {
		if !seen[key] {
			t.Errorf("expected table names %s, which is not registered", key)
		}
	}
}

func TestSignatureArityVariants(t *testing.T) {
	// A zero-argument form reads the context item and may raise XPDY0002
	// where the one-argument form only does singleton checks; nothing else
	// about the pair differs.
	for _, name := range []string{"string", "string-length", "normalize-space", "number", "name", "local-name", "root"} {
		at0, ok0 := Lookup(name, 0)
		at1, ok1 := Lookup(name, 1)
		if !ok0 || !ok1 || at0 == at1 {
			t.Errorf("%s: the two forms must be two rows", name)
			continue
		}
		if !at0.ReadsItem || at0.Total || at0.TotalIfBounded || at1.ReadsItem {
			t.Errorf("%s: focus facts: /0 %q, /1 %q", name, describe(at0), describe(at1))
		}
		twin := *at0
		twin.ReadsItem, twin.TotalIfBounded, twin.minArgs, twin.maxArgs = false, at1.TotalIfBounded, 1, 1
		if describe(&twin) != describe(at1) {
			t.Errorf("%s: forms differ beyond the focus: /0 %q, /1 %q", name, describe(at0), describe(at1))
		}
	}
	// sum/2 returns the caller's zero value verbatim on empty input.
	if f, _ := Lookup("sum", 2); describe(f) != "* any" {
		t.Errorf("sum/2 = %q", describe(f))
	}
	// Ranges: one row answers every arity it spans.
	for _, c := range []struct {
		name   string
		lo, hi int
	}{{"substring", 2, 3}, {"subsequence", 2, 3}, {"error", 0, 2}, {"concat", 2, 9}, {"trace", 1, 9}} {
		first, _ := Lookup(c.name, c.lo)
		for n := c.lo; n <= c.hi; n++ {
			if f, ok := Lookup(c.name, n); !ok || f != first {
				t.Errorf("%s/%d: not the row of %s/%d", c.name, n, c.name, c.lo)
			}
		}
	}
}

func TestSignatureBoundsAndCtors(t *testing.T) {
	if f, ok := Lookup("concat", 1); ok || f == nil || f.Name != "concat" {
		t.Error("concat/1 is not a legal arity (the name's row still comes back, ok false)")
	}
	if f, ok := Lookup("nonexistent", 1); ok || f != nil {
		t.Error("unknown name must not have a row")
	}
	f, ok := Lookup("xs:integer", 1)
	if !ok || describe(f) != "? int nf" {
		t.Errorf("xs:integer ctor row = %q", describe(f))
	}
	if _, ok := Lookup("xs:integer", 2); ok {
		t.Error("constructors answer only at arity 1")
	}
	// An abstract or unknown type still names a constructor: the call raises
	// XPST0051 on a non-empty argument, so any kind bounds its result.
	for _, name := range []string{"xs:numeric", "xs:date"} {
		if f, ok := Lookup(name, 1); !ok || describe(f) != "? any nf" {
			t.Errorf("%s ctor row = %q, %v", name, describe(f), ok)
		}
	}
	if _, err := f.Call(nil, []xdm.Sequence{xdm.Singleton(xdm.String("x"))}); err == nil {
		t.Error(`xs:integer("x") must raise`)
	}
	// fn: prefix is transparent.
	a, _ := Lookup("fn:count", 1)
	b, _ := Lookup("count", 1)
	if a != b {
		t.Error("fn: prefix must not change the row")
	}
}
