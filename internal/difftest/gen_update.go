package difftest

// gen_update.go extends the differential harness to the update sublanguage.
// The generator builds seeded random update programs — insert/delete/
// replace/rename statements plus for-where iteration, over the same fixed
// document shape as the query generator — and the oracle runs each under
// every configuration of the matrix TWICE: the copy-on-write apply path
// (the production one) and the eager deep-copy reference path
// (xq.WithEagerCopyApply). All outcomes must agree on the serialized result
// and the error code, and the input snapshot must serialize identically
// before and after every transform — an update that leaks a mutation into
// its source tree is a divergence even when the result looks right.
//
// RootMode varies how the input tree is prepared (frozen / a lazy clone of
// a frozen tree / a plain unfrozen parse), because the COW apply path takes
// different branches for each: frozen roots share structure with the
// result, clones carry live src pointers, plain roots are frozen on entry.

import (
	"fmt"
	"math/rand"

	"lopsided/xq"
)

// UpdateCase is one generated update-differential case.
type UpdateCase struct {
	// Seed reproduces the case through GenerateUpdate.
	Seed int64
	// Src is the update-program source.
	Src string
	// Doc is the context document's markup.
	Doc string
	// RootMode is how the input tree is prepared: "frozen", "clone", or
	// "plain".
	RootMode string
	// Policy is the duplicate-attribute policy (constructors inside update
	// content are subject to it like any other constructor).
	Policy xq.DupAttrPolicy
}

// asCase shapes the update case for Divergence reports.
func (c UpdateCase) asCase() Case {
	return Case{Seed: c.Seed, Src: c.Src, Doc: c.Doc, Policy: c.Policy}
}

// GenerateUpdate builds the update-differential case for a seed. The same
// seed always yields the same case.
func GenerateUpdate(seed int64) UpdateCase {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	n := 1 + g.rng.Intn(3)
	var b []any
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ";\n")
		}
		b = append(b, g.updateStmt(0))
	}
	src := (&gnode{parts: b}).Source()
	policies := []xq.DupAttrPolicy{
		xq.DupAttrLastWins, xq.DupAttrFirstWins, xq.DupAttrGalaxBug, xq.DupAttrError,
	}
	return UpdateCase{
		Seed:     seed,
		Src:      src,
		Doc:      g.document(),
		RootMode: g.pick([]string{"frozen", "clone", "plain"}),
		Policy:   policies[g.rng.Intn(len(policies))],
	}
}

// updateStmt generates one update statement.
func (g *gen) updateStmt(depth int) *gnode {
	switch g.rng.Intn(8) {
	case 0, 1:
		placement := g.pick([]string{"into", "before", "after"})
		return lit("insert ", g.updContent(depth), " ", placement, " ", g.updTarget())
	case 2:
		return lit("delete ", g.updTarget())
	case 3:
		return lit("replace ", g.updTarget(), " with ", g.updContent(depth))
	case 4:
		name := g.pick([]string{`"nn"`, `"item"`, `concat("k", "2")`, `"bad name"`})
		return lit("rename ", g.updTarget(), " as ", name)
	case 5:
		// Attribute-flavored statements: attr targets and attr content.
		switch g.rng.Intn(3) {
		case 0:
			return lit("delete ", g.updAttrTarget())
		case 1:
			return lit("replace ", g.updAttrTarget(), " with attribute ",
				g.pick([]string{"n", "q"}), " { ", g.atom(), " }")
		default:
			return lit("insert attribute ", g.pick([]string{"q", "n"}), " { ", g.atom(), " } into ", g.updTarget())
		}
	default:
		// for-where iteration, possibly with a statement block.
		v := g.fresh()
		parts := []any{"for $", v, " in ", g.pick([]string{"//item", "/r/item", "/r/*", "//nope"})}
		g.vars = append(g.vars, v)
		if g.rng.Intn(2) == 0 {
			parts = append(parts, " where ", g.comparison(depth+1))
		}
		parts = append(parts, " return ")
		if depth < 2 && g.rng.Intn(3) == 0 {
			parts = append(parts, "(", g.updateVarStmt(v, depth+1), "; ", g.updateVarStmt(v, depth+1), ")")
		} else {
			parts = append(parts, g.updateVarStmt(v, depth+1))
		}
		g.vars = g.vars[:len(g.vars)-1]
		return &gnode{parts: parts}
	}
}

// updateVarStmt generates a statement whose target involves the loop
// variable, so the for-body exercises per-item targets.
func (g *gen) updateVarStmt(v string, depth int) *gnode {
	switch g.rng.Intn(5) {
	case 0:
		return lit("delete $", v, "/@k")
	case 1:
		return lit("insert ", g.updContent(depth), " into $", v)
	case 2:
		return lit("replace $", v, " with <nu>{string($", v, ")}</nu>")
	case 3:
		return lit("rename $", v, ` as "ren"`)
	default:
		return lit("insert attribute seen { 1 } into $", v)
	}
}

// updTarget picks an update target path: mostly singleton elements, but
// also missing targets (XUDY0027 parity), multi-item targets, text nodes,
// and the root.
func (g *gen) updTarget() *gnode {
	return lit(g.pick([]string{
		"(/r/item)[1]", "(/r/item)[2]", "(/r/item)[last()]", "/r/empty",
		"(//item)[1]", "(/)", "/r/nope", "(//item/text())[1]", "//item",
		"(/r/*)[1]",
	}))
}

// updAttrTarget picks attribute targets (present and missing).
func (g *gen) updAttrTarget() *gnode {
	return lit(g.pick([]string{
		"(/r/item)[1]/@n", "(/r/item)[1]/@k", "(/r/item)[2]/@nope", "(//item/@k)[1]",
	}))
}

// updContent generates insert/replace content: constructors, text, atomics,
// sequences — the same hazard mix the query generator feeds constructors.
func (g *gen) updContent(depth int) *gnode {
	switch g.rng.Intn(5) {
	case 0:
		return lit(`<nu a="1">x</nu>`)
	case 1:
		return lit("text { ", g.atom(), " }")
	case 2:
		return g.constructor(depth + 1)
	case 3:
		return lit("(", g.atom(), ", <mid/>, ", g.atom(), ")")
	default:
		return g.atom()
	}
}

// EvalUpdate runs one update case under one configuration. eager selects
// the deep-copy reference apply path instead of the COW path. A transform
// that mutates its input snapshot reports the synthetic code
// "SOURCE-MUTATED", which can never agree with a clean baseline.
func EvalUpdate(c UpdateCase, cfg Config, eager bool) Outcome {
	out := Outcome{Config: cfg}
	opts := append(cfg.options(c.Policy), xq.WithEagerCopyApply(eager))
	var st xq.EvalStats
	if cfg.Traced {
		opts = append(opts, xq.WithTracer(xq.NopTracer), xq.WithStats(&st))
	}
	compile := xq.CompileUpdate
	if cfg.Cached {
		compile = xq.CompileUpdateCached
	}
	q, err := compile(c.Src, opts...)
	if err != nil {
		out.Code, out.Err = codeOf(err)
		return out
	}
	doc, err := xq.ParseXML(c.Doc)
	if err != nil {
		out.Code, out.Err = codeOf(err)
		return out
	}
	root := doc
	switch c.RootMode {
	case "frozen":
		root = xq.Freeze(doc)
	case "clone":
		root = xq.Freeze(doc).Clone()
	}
	before := root.String()
	res, terr := q.Transform(nil, root)
	if after := root.String(); after != before {
		out.Code = "SOURCE-MUTATED"
		out.Err = fmt.Sprintf("input snapshot changed across Transform:\nbefore: %s\nafter:  %s", before, after)
		return out
	}
	if terr != nil {
		out.Code, out.Err = codeOf(terr)
		out.LimitTripped = xq.IsLimitError(terr)
		return out
	}
	out.Out = res.String()
	return out
}

// CheckUpdate evaluates the update case under every configuration in
// configs, each on the COW apply path, against the baseline configuration
// on the eager deep-copy path, and returns the first divergence (or nil).
// With fewer than two configurations it uses the full Matrix.
func CheckUpdate(c UpdateCase, configs []Config) *Divergence {
	if len(configs) < 2 {
		configs = Matrix()
	}
	base := EvalUpdate(c, configs[0], true)
	base.Config.Name += "+eager"
	for _, cfg := range configs {
		got := EvalUpdate(c, cfg, false)
		if !base.equivalent(got) {
			return &Divergence{Case: c.asCase(), A: base, B: got}
		}
	}
	return nil
}
