package shapes_test

// The vocabulary — every built-in function and every atomic type name — as
// the static passes and the runtime see it, pinned against
// testdata/vocabulary_pinned.golden. The file was captured from the commit
// before a built-in and a type were each described in one table row (funclib's
// register calls, xdm's atomicTypes), when the same facts lived in a signature
// switch, a flow switch, four name lists and seven xs: switches; a line that
// moves is a behaviour change and belongs in CHANGES.md.
// UPDATE_GOLDEN=1 go test -run TestVocabularyPinned ./internal/xquery/shapes
// rewrites it.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xquery/funclib"
	"lopsided/internal/xquery/parser"
	"lopsided/internal/xquery/project"
	"lopsided/internal/xquery/shapes"
	"lopsided/xq"
)

// vocabTypes are the type names the engine's tables mention, plus two it
// does not know. Each doubles as a constructor-function name.
var vocabTypes = []string{
	"xs:string", "xs:boolean", "xs:integer", "xs:int", "xs:long",
	"xs:nonNegativeInteger", "xs:positiveInteger", "xs:decimal", "xs:double",
	"xs:float", "xs:untypedAtomic", "xdt:untypedAtomic", "xs:anyAtomicType",
	"xdt:anyAtomicType", "xs:numeric", "xs:date", "my:type",
}

// vocabArgs are the argument expressions every call is probed with.
var vocabArgs = []string{`()`, `1`, `"a"`, `(1,2,3)`, `("a",1)`, `//a`, `/r/@x`}

const vocabDoc = `<r x="7"><a>1</a><a>2<b/></a></r>`

// vocabCalls lists the argument tuples for one name at one arity: every
// argument the same expression, and the first varying over 1s.
func vocabCalls(arity int, legal bool) [][]string {
	if arity == 0 {
		return [][]string{nil}
	}
	var out [][]string
	seen := map[string]bool{}
	add := func(args []string) {
		if key := strings.Join(args, ","); !seen[key] {
			seen[key] = true
			out = append(out, args)
		}
	}
	for _, e := range vocabArgs {
		same := make([]string, arity)
		for i := range same {
			same[i] = e
		}
		add(same)
	}
	if legal && arity > 1 {
		for _, e := range vocabArgs {
			first := make([]string, arity)
			for i := range first {
				first[i] = `1`
			}
			first[0] = e
			add(first)
		}
	}
	return out
}

func inferShape(t *testing.T, src string, focus bool) string {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return shapes.InferExpr(mod.Body, shapes.Scope{
		InScope:  func(name string) bool { return name == "x" },
		HasFocus: focus,
	}).String()
}

func projectionOf(t *testing.T, src string) (out string) {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	defer func() {
		if r := recover(); r != nil {
			out = "PANIC"
		}
	}()
	res := project.Analyze(mod)
	if res.Proj == nil {
		return "none (" + res.Reason + ")"
	}
	return res.Proj.String()
}

// vocabItems is the item pool the type rows are probed with.
func vocabItems(t *testing.T) []struct {
	label string
	seq   xdm.Sequence
} {
	doc, err := xq.ParseXML(vocabDoc)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := xq.MustCompile(`(/r/a[1], /r/@x, /r/a[1]/text())`).Eval(context.Background(), doc)
	if err != nil || len(nodes) != 3 {
		t.Fatalf("node pool: %v %v", nodes, err)
	}
	one := func(label string, it xdm.Item) struct {
		label string
		seq   xdm.Sequence
	} {
		return struct {
			label string
			seq   xdm.Sequence
		}{label, xdm.Singleton(it)}
	}
	pool := []struct {
		label string
		seq   xdm.Sequence
	}{{"()", xdm.Empty}, {"(1,2)", xdm.Sequence{xdm.Integer(1), xdm.Integer(2)}}}
	for _, s := range []string{"", "abc", " 42 ", "1.5", "true", "0", "NaN", "-7", "1e3", "INF"} {
		pool = append(pool, one(fmt.Sprintf("str %q", s), xdm.String(s)))
	}
	for _, s := range []string{"42", "x", "-3.5"} {
		pool = append(pool, one(fmt.Sprintf("untyped %q", s), xdm.Untyped(s)))
	}
	for _, i := range []int64{0, -1, 5, math.MaxInt64} {
		pool = append(pool, one(fmt.Sprintf("int %d", i), xdm.Integer(i)))
	}
	for _, s := range []string{"1.5", "-2", "0"} {
		d, _ := xdm.ParseDecimal(s)
		pool = append(pool, one("dec "+s, d))
	}
	for _, d := range []float64{0, 2.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e20} {
		pool = append(pool, one(fmt.Sprintf("dbl %g", d), xdm.Double(d)))
	}
	pool = append(pool, one("bool true", xdm.Boolean(true)), one("bool false", xdm.Boolean(false)),
		one("element", nodes[0]), one("attribute", nodes[1]), one("text", nodes[2]))
	return pool
}

// evalOver compiles src (which reads the external $x) once and renders its
// result, or error code, for one binding.
func evalOver(q *xq.Query, x xdm.Sequence) string {
	out, err := q.Eval(context.Background(), nil, xq.WithVars(map[string]xdm.Sequence{"x": x}))
	if err != nil {
		return "!" + xq.ErrorCode(err)
	}
	var parts []string
	for _, it := range out {
		parts = append(parts, it.TypeName()+"("+it.StringValue()+")")
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func TestVocabularyPinned(t *testing.T) {
	var b strings.Builder
	names := funclib.Names()
	sort.Strings(names)
	names = append(names, vocabTypes...)
	for _, name := range names {
		for arity := 0; arity <= 4; arity++ {
			sig, legal := sigLine(name, arity)
			fmt.Fprintf(&b, "sig %s/%d: %s\n", name, arity, sig)
			for _, args := range vocabCalls(arity, legal) {
				call := name + "(" + strings.Join(args, ", ") + ")"
				fmt.Fprintf(&b, "  %s :: %s focus %s :: count %s :: step %s\n", call,
					inferShape(t, call, false), inferShape(t, call, true),
					projectionOf(t, "count("+call+")"), projectionOf(t, call+"/b"))
			}
		}
	}
	items := vocabItems(t)
	casts := []string{`1`, `"a"`, `1.5`, `1e0`, `()`, `true()`, `(1,2)`, `$x`, `//a`}
	for _, typ := range vocabTypes {
		fmt.Fprintf(&b, "type %s:", typ)
		for _, e := range casts {
			fmt.Fprintf(&b, " %s=%s", e, inferShape(t, "("+e+") cast as "+typ, false))
		}
		fmt.Fprintf(&b, " opt=%s ctor=%s\n", inferShape(t, "$x cast as "+typ+"?", false), inferShape(t, typ+"($x)", false))
		var probes []*xq.Query
		for _, src := range []string{
			"$x instance of " + typ + "*", "$x castable as " + typ, "$x cast as " + typ,
			"$x cast as " + typ + "?", typ + "($x)",
		} {
			q, err := xq.Compile("declare variable $x external; " + src)
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			probes = append(probes, q)
		}
		for _, it := range items {
			fmt.Fprintf(&b, "  %s %s:", typ, it.label)
			for i, label := range []string{"instance", "castable", "cast", "cast?", "ctor"} {
				fmt.Fprintf(&b, " %s=%s", label, evalOver(probes[i], it.seq))
			}
			b.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "vocabulary_pinned.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("vocabulary_pinned.golden line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// sigLine renders the signature a built-in's row states at one arity, and
// whether the arity is legal.
func sigLine(name string, arity int) (string, bool) {
	f, ok := funclib.Lookup(name, arity)
	if !ok {
		return "none", false
	}
	out := [...]string{"1", "?", "*", "+", "0"}[f.Occ] + " " + f.Kinds.String()
	if f.NodeFree {
		out += " nf"
	}
	switch {
	case f.Total:
		out += " total"
	case f.TotalIfBounded:
		out += " bounded"
	}
	return out, true
}
