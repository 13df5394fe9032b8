// Package difftest is the engine's differential conformance harness: a
// seeded random query/document generator (gen.go) plus a multi-configuration
// oracle that evaluates each generated query under every execution
// configuration the engine has grown — optimizer levels O0/O1/O2, fresh
// compilation vs the process-wide plan cache, evaluation with or without a
// structured tracer and stats attached, and index-backed access paths vs
// forced tree walks — and requires identical serialized results and error
// codes everywhere.
//
// The paper's tables T1 (sequence indexing) and T3 (attribute folding) mark
// exactly the semantics that silently drift between such configurations;
// every divergence this harness has found is fixed in the engine and pinned
// in testdata/seeds.txt so plain `go test` replays it forever. cmd/xqdiff
// exposes the same oracle as a CLI with a shrinking minimizer.
package difftest

import (
	"fmt"
	"strings"

	"lopsided/xq"
)

// Config is one execution configuration of the engine.
type Config struct {
	// Name is the stable identifier used by `xqdiff -config` and in
	// divergence reports: "O2", "O1+cache", "O0+trace", "O2+cache+trace",
	// "O2+galax", "O2+noidx".
	Name string
	// OptLevel is the optimizer level the plan is built at.
	OptLevel xq.OptLevel
	// Cached compiles through xq.CompileCached instead of xq.Compile.
	Cached bool
	// Traced attaches a structured Tracer and an EvalStats collector, which
	// also forces the counting budget on — observability must never change
	// results.
	Traced bool
	// GalaxTrace compiles with WithTraceEffectful(false), the paper-era
	// configuration whose dead-code pass may delete fn:trace output. Results
	// and error codes must still be identical; only trace events may differ.
	GalaxTrace bool
	// NoIndex compiles with WithAccessPaths(false), forcing every path step
	// onto the tree walk. The default configurations plan index scans at O1+
	// (the context documents are frozen, so probes really are served from
	// indexes); comparing against NoIndex proves indexed ≡ unindexed
	// semantics.
	NoIndex bool
	// NoShapes compiles with WithShapes(false), turning off the static
	// shape & cardinality analysis: no shape-proven dead-let elimination,
	// no predicate widening, and no compile-time rejection of inevitable
	// type errors (which then surface at runtime with the same code, so
	// Out+Code equivalence still holds). Comparing against NoShapes proves
	// shapes-on ≡ shapes-off semantics.
	NoShapes bool
	// Projected compiles through xq.CompileStream with the pure-streaming
	// tier disabled and evaluates via EvalReader, so the context document is
	// parsed through the static path projection (pruned to the query's
	// touchable subtrees plus ancestor shells). Comparing against the
	// materialized default proves projected-parse ≡ full-parse semantics.
	Projected bool
	// Streamed compiles through xq.CompileStream with both streaming tiers
	// enabled: queries in the downward-axis fragment are answered by the
	// SAX evaluator with no tree at all, the rest fall back to projection
	// or materialization. Comparing against the default proves the whole
	// streaming ladder changes memory, never semantics.
	Streamed bool
}

// Matrix returns the full configuration matrix the acceptance criteria
// name: -O0/-O1/-O2 × fresh/cached × untraced/traced, plus the Galax-era
// trace-elimination configuration at O2. The first entry (plain O0) is the
// baseline every other configuration is compared against.
func Matrix() []Config {
	var out []Config
	for _, lvl := range []xq.OptLevel{xq.O0, xq.O1, xq.O2} {
		for _, cached := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				out = append(out, Config{
					Name:     configName(lvl, cached, traced, false),
					OptLevel: lvl,
					Cached:   cached,
					Traced:   traced,
				})
			}
		}
	}
	out = append(out, Config{Name: "O2+galax", OptLevel: xq.O2, GalaxTrace: true})
	// Unindexed configurations at the levels that plan access paths: the
	// indexed default vs these proves the access-path layer changes cost,
	// never semantics.
	out = append(out, Config{Name: "O1+noidx", OptLevel: xq.O1, NoIndex: true})
	out = append(out, Config{Name: "O2+noidx", OptLevel: xq.O2, NoIndex: true})
	// Shapes-off configurations at the extremes: O0 (no optimizer consumers,
	// isolates the interp/static-error consumers) and O2 (everything on).
	// The shaped defaults vs these prove the shape analysis changes cost and
	// error timing, never results or codes.
	out = append(out, Config{Name: "O0+noshapes", OptLevel: xq.O0, NoShapes: true})
	out = append(out, Config{Name: "O2+noshapes", OptLevel: xq.O2, NoShapes: true})
	// Streaming configurations at O2 (where the optimizer rewrites paths the
	// projection and stream analyses must still see through): projection-only
	// parsing, and the full streaming ladder with the SAX tier on top.
	out = append(out, Config{Name: "O2+proj", OptLevel: xq.O2, Projected: true})
	out = append(out, Config{Name: "O2+stream", OptLevel: xq.O2, Streamed: true})
	return out
}

func configName(lvl xq.OptLevel, cached, traced, galax bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "O%d", int(lvl))
	if cached {
		b.WriteString("+cache")
	}
	if traced {
		b.WriteString("+trace")
	}
	if galax {
		b.WriteString("+galax")
	}
	return b.String()
}

// FindConfig resolves a -config name against the matrix.
func FindConfig(name string) (Config, bool) {
	for _, c := range Matrix() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// Case is one generated differential test case.
type Case struct {
	// Seed reproduces the case through Generate.
	Seed int64
	// Src is the XQuery source under test.
	Src string
	// Doc is the context document's markup ("" for no context item).
	Doc string
	// Policy is the duplicate-attribute policy every configuration runs
	// under (the policy is runtime configuration, shared across configs).
	Policy xq.DupAttrPolicy
}

// Outcome is what one configuration produced for a case.
type Outcome struct {
	Config Config
	// Out is the serialized result ("" when Err is set).
	Out string
	// Code is the XQuery error code of the failure ("" on success; parse
	// errors report their static code, XPST0003 when generic).
	Code string
	// Err is the full error text, for reports only — comparison uses Code,
	// because positions legitimately move between optimizer levels while
	// codes may not.
	Err string
	// LimitTripped reports IsLimitError for budgeted runs.
	LimitTripped bool
}

// equivalent reports whether two outcomes agree: same serialized output and
// same error code.
func (o Outcome) equivalent(other Outcome) bool {
	return o.Out == other.Out && o.Code == other.Code
}

// Divergence describes a disagreement between two configurations on one
// case.
type Divergence struct {
	Case Case
	A, B Outcome
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("divergence on seed %d: %s -> out=%q code=%q, %s -> out=%q code=%q\nquery: %s\ndoc: %s",
		d.Case.Seed, d.A.Config.Name, d.A.Out, d.A.Code, d.B.Config.Name, d.B.Out, d.B.Code, d.Case.Src, d.Case.Doc)
}

// Eval runs one case under one configuration.
func Eval(c Case, cfg Config) Outcome {
	return evalCase(c, cfg, 0)
}

// evalCase runs one case under one configuration; maxSteps > 0 adds a step
// budget.
func evalCase(c Case, cfg Config, maxSteps int64) Outcome {
	out := Outcome{Config: cfg}
	opts := []xq.Option{
		xq.WithOptLevel(cfg.OptLevel),
		xq.WithTraceEffectful(!cfg.GalaxTrace),
		xq.WithAccessPaths(!cfg.NoIndex),
		xq.WithShapes(!cfg.NoShapes),
		xq.WithDupAttrPolicy(c.Policy),
	}
	if maxSteps > 0 {
		opts = append(opts, xq.WithLimits(xq.Limits{MaxSteps: maxSteps}))
	}
	var st xq.EvalStats
	if cfg.Traced {
		opts = append(opts, xq.WithTracer(xq.NopTracer), xq.WithStats(&st))
	}
	if cfg.Projected || cfg.Streamed {
		return evalStreaming(c, cfg, opts, out)
	}
	compile := xq.Compile
	if cfg.Cached {
		compile = xq.CompileCached
	}
	q, err := compile(c.Src, opts...)
	if err != nil {
		out.Code, out.Err = codeOf(err)
		return out
	}
	doc, err := contextDoc(c)
	if err != nil {
		out.Code, out.Err = codeOf(err)
		return out
	}
	s, err := q.EvalString(nil, doc)
	if err != nil {
		out.Code, out.Err = codeOf(err)
		out.LimitTripped = xq.IsLimitError(err)
		return out
	}
	out.Out = s
	return out
}

// evalStreaming runs the case through the streaming entry point: the context
// document streams from its markup instead of being pre-parsed, exercising
// the projection-pruned parse (Projected) or the full streaming ladder
// (Streamed). A case with no context document evaluates like the default
// path — there is nothing to stream.
func evalStreaming(c Case, cfg Config, opts []xq.Option, out Outcome) Outcome {
	if cfg.Projected {
		opts = append(opts, xq.WithStreamEval(false))
	}
	q, err := xq.CompileStream(c.Src, opts...)
	if err != nil {
		out.Code, out.Err = codeOf(err)
		return out
	}
	var s string
	if c.Doc == "" {
		s, err = q.EvalString(nil, nil)
	} else {
		s, err = q.EvalReader(nil, strings.NewReader(c.Doc))
	}
	if err != nil {
		out.Code, out.Err = codeOf(err)
		out.LimitTripped = xq.IsLimitError(err)
		return out
	}
	out.Out = s
	return out
}

func codeOf(err error) (code, msg string) {
	code = xq.ErrorCode(err)
	if code == "" {
		// Uncoded failures (resolver I/O, XML parse) still must agree
		// across configurations; compare their text.
		code = err.Error()
	}
	return code, err.Error()
}

func contextDoc(c Case) (*xq.Node, error) {
	if c.Doc == "" {
		return nil, nil
	}
	doc, err := xq.ParseXML(c.Doc)
	if err != nil {
		return nil, err
	}
	// Freeze the context document so indexed configurations exercise real
	// index probes instead of silently falling back to walks everywhere.
	return xq.Freeze(doc), nil
}

// Check evaluates the case under every configuration in configs and returns
// the first divergence from the baseline (configs[0]), or nil when all
// agree. With fewer than two configurations it uses the full Matrix.
func Check(c Case, configs []Config) *Divergence {
	if len(configs) < 2 {
		configs = Matrix()
	}
	base := Eval(c, configs[0])
	for _, cfg := range configs[1:] {
		got := Eval(c, cfg)
		if !base.equivalent(got) {
			return &Divergence{Case: c, A: base, B: got}
		}
	}
	return nil
}

// CheckBudgeted verifies limit-trip parity: within one optimizer level, the
// cached/traced dimensions must agree exactly on whether a step budget
// trips and with which outcome. (Across optimizer levels step counts
// legitimately differ — folded constants are steps never taken — so the
// comparison is scoped per level.)
//
// The budget is derived per level by measuring the unbudgeted step count
// and halving it; evaluations too small to measure are skipped.
func CheckBudgeted(c Case) *Divergence {
	for _, lvl := range []xq.OptLevel{xq.O0, xq.O1, xq.O2} {
		probe := Config{Name: configName(lvl, false, true, false), OptLevel: lvl, Traced: true}
		var st xq.EvalStats
		steps, ok := measureSteps(c, probe, &st)
		if !ok || steps < 8 {
			continue
		}
		budget := steps / 2
		variants := []Config{
			{Name: configName(lvl, false, false, false), OptLevel: lvl},
			{Name: configName(lvl, true, false, false), OptLevel: lvl, Cached: true},
			{Name: configName(lvl, false, true, false), OptLevel: lvl, Traced: true},
			{Name: configName(lvl, true, true, false), OptLevel: lvl, Cached: true, Traced: true},
		}
		base := evalCase(c, variants[0], budget)
		for _, cfg := range variants[1:] {
			got := evalCase(c, cfg, budget)
			if base.Out != got.Out || base.Code != got.Code || base.LimitTripped != got.LimitTripped {
				return &Divergence{Case: c, A: base, B: got}
			}
		}
	}
	return nil
}

// measureSteps runs the case unbudgeted with stats attached and reports the
// step count; ok is false when the case does not evaluate successfully.
func measureSteps(c Case, cfg Config, st *xq.EvalStats) (int64, bool) {
	opts := []xq.Option{
		xq.WithOptLevel(cfg.OptLevel),
		xq.WithTraceEffectful(true),
		xq.WithDupAttrPolicy(c.Policy),
		xq.WithStats(st),
	}
	q, err := xq.Compile(c.Src, opts...)
	if err != nil {
		return 0, false
	}
	doc, err := contextDoc(c)
	if err != nil {
		return 0, false
	}
	if _, err := q.EvalString(nil, doc); err != nil {
		return 0, false
	}
	return st.Steps, true
}

// Explain compiles the case at the given configuration and returns the
// EXPLAIN dump, or the compile error's text.
func Explain(c Case, cfg Config) string {
	q, err := xq.Compile(c.Src,
		xq.WithOptLevel(cfg.OptLevel),
		xq.WithTraceEffectful(!cfg.GalaxTrace),
		xq.WithAccessPaths(!cfg.NoIndex),
		xq.WithShapes(!cfg.NoShapes),
		xq.WithDupAttrPolicy(c.Policy))
	if err != nil {
		return "compile error: " + err.Error()
	}
	return q.Explain()
}
