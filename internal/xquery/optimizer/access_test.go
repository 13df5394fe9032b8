package optimizer

import (
	"testing"

	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/parser"
)

// planQuery parses `src` as a query whose body is a single path expression,
// optimizes it at O2, and returns the planned path.
func planQuery(t *testing.T, src string, opts Options) (*ast.PathExpr, Stats) {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	stats := Optimize(mod, opts)
	p, ok := mod.Body.(*ast.PathExpr)
	if !ok {
		t.Fatalf("%s: body is %T, not a path", src, mod.Body)
	}
	return p, stats
}

func TestPlanFusesLeadingSlashSlash(t *testing.T) {
	p, stats := planQuery(t, `//item`, Options{Level: O2})
	if p.Root != ast.RootSlash {
		t.Fatalf("root not rewritten to RootSlash: %v", p.Root)
	}
	if len(p.Steps) != 1 {
		t.Fatalf("steps = %d, want 1 fused step", len(p.Steps))
	}
	s := p.Steps[0]
	if s.Axis != ast.AxisDescendant || s.Test.Name != "item" {
		t.Fatalf("fused step is %s::%s", s.Axis, s.Test.Name)
	}
	if s.Access == nil || s.Access.Kind != ast.AccessIndexScan || !s.Access.Fused {
		t.Fatalf("fused step access = %+v", s.Access)
	}
	if stats.IndexScans != 1 {
		t.Fatalf("stats.IndexScans = %d", stats.IndexScans)
	}
}

func TestPlanFusesInteriorSlashSlash(t *testing.T) {
	p, _ := planQuery(t, `/r//item`, Options{Level: O2})
	// /r -> child::r (tree walk), // + item -> descendant::item (index scan).
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(p.Steps))
	}
	if a := p.Steps[0].Access; a == nil || a.Kind != ast.AccessTreeWalk {
		t.Fatalf("child step access = %+v", a)
	}
	s := p.Steps[1]
	if s.Axis != ast.AxisDescendant || s.Access == nil || s.Access.Kind != ast.AccessIndexScan || !s.Access.Fused {
		t.Fatalf("fused step = %s access %+v", s.Axis, s.Access)
	}
}

func TestPlanFoldsAttrPredicate(t *testing.T) {
	p, stats := planQuery(t, `//item[@k = 'v']`, Options{Level: O2})
	s := p.Steps[len(p.Steps)-1]
	if s.Access == nil || s.Access.Kind != ast.AccessIndexScan {
		t.Fatalf("access = %+v", s.Access)
	}
	if s.Access.AttrName != "k" || keyOf(s.Access) != "v" {
		t.Fatalf("folded pred = %q=%q", s.Access.AttrName, keyOf(s.Access))
	}
	// The fold is an annotation: the predicate stays where the parser put
	// it, so readers that never look at Access still see the whole step.
	if len(s.Preds) != 1 {
		t.Fatalf("folded predicate must stay on the step: %d preds", len(s.Preds))
	}
	if a, v, ok := ast.AttrEqLiteral(s.Preds[0]); !ok || a != s.Access.AttrName || v != keyOf(s.Access) {
		t.Fatalf("Preds[0] = %s does not match the annotation %+v", ast.Print(s.Preds[0]), s.Access)
	}
	if stats.FoldedPredicates != 1 {
		t.Fatalf("stats.FoldedPredicates = %d", stats.FoldedPredicates)
	}

	// Reversed operand order folds too.
	p, _ = planQuery(t, `/r/item['v' = @k]`, Options{Level: O2})
	s = p.Steps[len(p.Steps)-1]
	if s.Access == nil || s.Access.AttrName != "k" || keyOf(s.Access) != "v" {
		t.Fatalf("reversed operands not folded: %+v", s.Access)
	}
}

func TestPlanRefusesUnsafeShapes(t *testing.T) {
	cases := []struct {
		src string
		why string
	}{
		{`//item[2]`, "positional predicate blocks fusion"},
		{`//item[@k eq 'v']`, "value comparison can raise on duplicate attrs"},
		{`//item[@k = 5]`, "non-string literal comparisons are numeric, not string"},
		{`//item[@k = @j]`, "non-literal operand"},
		{`//*[@k = 'v']`, "wildcard name test"},
	}
	for _, tc := range cases {
		p, _ := planQuery(t, tc.src, Options{Level: O2})
		for _, s := range p.Steps {
			if s.Access != nil && s.Access.Kind == ast.AccessIndexScan &&
				(s.Access.Fused || s.Access.AttrName != "") {
				t.Errorf("%s: unsafely planned (%s): %+v", tc.src, tc.why, s.Access)
			}
		}
	}
	// The leading-// rooting must survive unfused in the positional case
	// (its child step keeps per-parent positions).
	p, _ := planQuery(t, `//item[2]`, Options{Level: O2})
	if p.Root != ast.RootSlashSlash || len(p.Steps) != 1 || p.Steps[0].Axis != ast.AxisChild {
		t.Fatalf("//item[2] was fused: root=%v steps=%d", p.Root, len(p.Steps))
	}
	// O2 constant folding can legalize a fold: concat('a','b') becomes the
	// literal 'ab' before planning, so this one IS (correctly) folded.
	p, _ = planQuery(t, `//item[@k = concat('a','b')]`, Options{Level: O2})
	if a := p.Steps[0].Access; a == nil || keyOf(a) != "ab" {
		t.Fatalf("constant-folded operand did not fold into the probe: %+v", a)
	}
}

func TestPlanDisabledAndO0(t *testing.T) {
	p, stats := planQuery(t, `//item`, Options{Level: O2, DisableAccessPaths: true})
	for _, s := range p.Steps {
		if s.Access != nil {
			t.Fatalf("access planned while disabled: %+v", s.Access)
		}
	}
	if stats.IndexScans+stats.TreeWalks != 0 {
		t.Fatalf("stats counted while disabled: %+v", stats)
	}
	p, _ = planQuery(t, `//item`, Options{Level: O0})
	for _, s := range p.Steps {
		if s.Access != nil {
			t.Fatalf("access planned at O0: %+v", s.Access)
		}
	}
}

func TestPlanWidensNonPositionalPredicates(t *testing.T) {
	widened := []string{
		`//item[@k]`,               // pure axis path: total from a node focus
		`//item[b/c]`,              // multi-step axis path
		`//item[contains(., 'v')]`, // total builtin over the context item
	}
	for _, src := range widened {
		p, stats := planQuery(t, src, Options{Level: O2})
		if p.Root != ast.RootSlash || len(p.Steps) != 1 {
			t.Errorf("%s: not fused (root=%v steps=%d)", src, p.Root, len(p.Steps))
			continue
		}
		s := p.Steps[0]
		if s.Axis != ast.AxisDescendant || s.Access == nil || !s.Access.Fused || s.Access.AttrName != "" {
			t.Errorf("%s: fused step = %s access %+v", src, s.Axis, s.Access)
		}
		if len(s.Preds) != 1 {
			t.Errorf("%s: widened predicate must stay on the step, preds=%d", src, len(s.Preds))
		}
		if stats.ShapeWidenedPredicates != 1 {
			t.Errorf("%s: stats.ShapeWidenedPredicates = %d", src, stats.ShapeWidenedPredicates)
		}
	}
	refused := []struct {
		src string
		why string
	}{
		{`//item[2]`, "positional"},
		{`//item[position() lt 2]`, "reads the focus position"},
		{`//item[last()]`, "reads the focus size"},
		{`//item[count(b)]`, "numeric value acts positionally"},
		{`//item[@k eq 'v']`, "value comparison can raise on duplicate attrs"},
		{`//item[string(@n) = $v]`, "free variable: unknown shape"},
	}
	for _, tc := range refused {
		p, stats := planQuery(t, tc.src, Options{Level: O2})
		if p.Root != ast.RootSlashSlash {
			t.Errorf("%s: fused despite %s", tc.src, tc.why)
		}
		if stats.ShapeWidenedPredicates != 0 {
			t.Errorf("%s: widening counted despite %s", tc.src, tc.why)
		}
	}
	// The noshapes configuration reproduces the pre-shapes plan exactly.
	p, stats := planQuery(t, `//item[@k]`, Options{Level: O2, DisableShapes: true})
	if p.Root != ast.RootSlashSlash || stats.ShapeWidenedPredicates != 0 {
		t.Fatalf("noshapes config widened: root=%v stats=%+v", p.Root, stats)
	}
}

func TestPlanSecondPredicateSurvivesFolding(t *testing.T) {
	// Only the FIRST predicate may fold (sequential predicate semantics);
	// with a non-foldable first predicate nothing folds.
	p, _ := planQuery(t, `/r/descendant::item[@k = 'v'][1]`, Options{Level: O2})
	s := p.Steps[len(p.Steps)-1]
	if s.Access == nil || s.Access.AttrName != "k" || len(s.Preds) != 2 {
		t.Fatalf("first-pred fold with trailing pred: access=%+v preds=%d", s.Access, len(s.Preds))
	}
	if _, _, ok := ast.AttrEqLiteral(s.Preds[0]); !ok || ast.Print(s.Preds[1]) != "1" {
		t.Fatalf("annotated step must keep both predicates in order: %s %s", ast.Print(s.Preds[0]), ast.Print(s.Preds[1]))
	}
	p, _ = planQuery(t, `/r/descendant::item[1][@k = 'v']`, Options{Level: O2})
	s = p.Steps[len(p.Steps)-1]
	if s.Access == nil || s.Access.AttrName != "" || len(s.Preds) != 2 {
		t.Fatalf("positional-first fold must not happen: access=%+v preds=%d", s.Access, len(s.Preds))
	}
}

// TestPlanFusesOnlyChildSteps: `//` is descendant-or-self::node() followed by
// whatever axis the next step names; only child::name collapses into
// descendant::name. `//@id` selects attributes and `//self::x` includes the
// context node itself — fusing either would select descendant ELEMENTS
// named id / drop the self match.
func TestPlanFusesOnlyChildSteps(t *testing.T) {
	for _, src := range []string{`//item//@id`, `//item//self::item`, `//item//parent::x`} {
		p, _ := planQuery(t, src, Options{Level: O2})
		if len(p.Steps) != 3 || !p.Steps[1].IsDescendantOrSelfNode() {
			t.Errorf("%s: planned as %s", src, ast.Print(p))
		}
	}
}

// keyOf prints a folded key: a literal's value, anything else as the AST
// printer shows it, "" when nothing was folded.
func keyOf(a *ast.AccessPath) string {
	switch k := a.AttrKey.(type) {
	case nil:
		return ""
	case *ast.StringLit:
		return k.Value
	default:
		return ast.Print(k)
	}
}

// TestPlanFoldsKeyedPredicate: [@attr = key] folds for any key that is
// focus-free and effect-free, from either side of the comparison, and a
// refused key leaves the step planned as if the predicate were any other —
// with the reason on the access path.
func TestPlanFoldsKeyedPredicate(t *testing.T) {
	for _, tc := range []struct{ src, key, refusal string }{
		{`/r/item[@k = $v]`, "$v", ""},
		{`/r/item[$v = @k]`, "$v", ""},
		{`/r/item[@k = string($r/@id)]`, "(call string (path (filter $r) (attribute::id)))", ""},
		{`/r/item[@k = $r/@id]`, "(path (filter $r) (attribute::id))", ""},
		// Later steps and predicates of a path in the key have their own focus.
		{`/r/item[@k = $r/x[@j = .]/@id[position() = 1]]`, "(path (filter $r) (child::x [(gc:= (path (attribute::j)) .)]) (attribute::id [(gc:= (call position) 1)]))", ""},
		{`/r/item[@k = ()]`, "()", ""},
		{`/r/descendant::item[@k = concat($a, "-", $b)]`, `(call concat $a "-" $b)`, ""},
		{`/r/item[@k = .]`, "", "key reads the context item"},
		{`/r/item[@k = @j]`, "", "key has a path relative to the context item"},
		{`/r/item[@k = /r/key/@k]`, "", "key has a path rooted at the context item's document"},
		{`/r/item[@k = concat("a", string())]`, "", "key calls string(), which reads the focus"},
		{`/r/item[@k = string(last())]`, "", "key calls last(), which reads the focus"},
		{`/r/item[@k = (.)/@j]`, "", "key reads the context item"},
		{`/r/item[@k = trace("t", $v)]`, "", "key calls trace, which emits"},
		{`/r/item[@k = $r/x[trace("t", @j)]/@id]`, "", "key calls trace, which emits"},
		{`declare function local:f($x) { $x }; /r/item[@k = local:f($v)]`, "", "key calls user function local:f"},
		{`declare function concat($x, $y) { $x }; /r/item[@k = concat($v, "a")]`, "", "key calls user function concat"},
		{`/r/item[@k = nosuch($v)]`, "", "key calls unknown function nosuch"},
		{`/r/item[@k = count($v, $v)]`, "", "key calls unknown function count"},
		{`/r/item[@k = (for $x in $v return $x)]`, "", "key has a FLWOR, whose bindings the tracer counts"},
		{`/r/item[@k = 3]`, "", "key is a number, which compares as a double"},
	} {
		p, stats := planQuery(t, tc.src, Options{Level: O1})
		s := p.Steps[len(p.Steps)-1]
		if tc.refusal == "" {
			if s.Access.Kind != ast.AccessIndexScan || s.Access.AttrName != "k" || keyOf(s.Access) != tc.key || stats.FoldedPredicates != 1 {
				t.Errorf("%s: access %+v key %s, folded=%d; want key %s", tc.src, s.Access, keyOf(s.Access), stats.FoldedPredicates, tc.key)
			}
			continue
		}
		if s.Access.AttrKey != nil || s.Access.Kind != ast.AccessTreeWalk || stats.FoldedPredicates != 0 ||
			s.Access.Reason != "child::item, [@k = …] not folded: "+tc.refusal {
			t.Errorf("%s: access %+v, folded=%d; want a tree walk refusing with %q", tc.src, s.Access, stats.FoldedPredicates, tc.refusal)
		}
	}
	// `//` fuses over a literal key only; under any other key the pair stays,
	// and the child step folds on its own.
	p, _ := planQuery(t, `//item[@k = $v]`, Options{Level: O2})
	if s := p.Steps[len(p.Steps)-1]; p.Root != ast.RootSlashSlash || s.Axis != ast.AxisChild || keyOf(s.Access) != "$v" {
		t.Errorf("//item[@k = $v]: root %v, step %s access %+v", p.Root, s.Axis, s.Access)
	}
}
