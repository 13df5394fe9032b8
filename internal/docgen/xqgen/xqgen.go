// Package xqgen is the document generator as the paper's team first built
// it: a program written in XQuery, executed on the lopsided engine. The
// generation phase is unchanged, but the INTERNAL-DATA post-processing
// pipeline — four more passes, each copying the entire document — is now a
// single compiled update program applied in one pass over a copy-on-write
// clone. NewCopyPhases keeps the paper's original five-phase pipeline for
// comparison; package native is the host-language rewrite. All three must
// produce byte-identical results.
package xqgen

import (
	"fmt"
	"sync"
	"time"

	"lopsided/internal/awb"
	"lopsided/internal/docgen"
	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

// GenError is a fatal generation error surfaced from the XQuery program's
// <error gen-error="true"> convention.
type GenError struct {
	Message  string
	Location string // directive name, the <location> clue
	FocusID  string
}

// Error implements the error interface.
func (e *GenError) Error() string {
	s := "docgen(xquery): " + e.Message
	if e.Location != "" {
		s += " (while processing <" + e.Location + ">"
		if e.FocusID != "" {
			s += ", focus " + e.FocusID
		}
		s += ")"
	}
	return s
}

// Generator runs the XQuery document generator. Construct with New (phase 1
// plus one update program) or NewCopyPhases (the original five copying
// phases); the programs compile once per generator.
type Generator struct {
	opts []xq.Option
	once sync.Once
	err  error
	// copyPhases selects the paper's original pipeline: five queries, each
	// copying the whole document. The default is phase 1 + one update
	// program applied in a single pass.
	copyPhases bool
	phases     [5]*xq.Query
	sources    [5]string
	update     *xq.Query
	// slowThreshold/slowHook are the slow-query log: any phase whose
	// evaluation takes at least slowThreshold reports its stats to the hook.
	slowThreshold time.Duration
	slowHook      func(phase int, st xq.EvalStats)
}

// SlowQueryLog installs a slow-phase hook: after any phase evaluation whose
// wall time is at least threshold, hook is called with the 1-based phase
// number and that evaluation's full resource statistics. In single-pass
// mode there are two phases: 1 is generation, 2 is the update transform.
// Installing a hook turns on per-phase stats collection; a nil hook turns
// the log off.
func (g *Generator) SlowQueryLog(threshold time.Duration, hook func(phase int, st xq.EvalStats)) {
	g.slowThreshold = threshold
	g.slowHook = hook
}

// New returns the XQuery generator in single-pass mode: phase 1 generates,
// then one compiled update program performs the omission tables, section
// ids, table of contents, replacement splice, and INTERNAL-DATA purge as a
// pending-update list applied against one copy-on-write clone. Options are
// passed to the underlying engine (optimizer level, duplicate-attribute
// policy, tracer) — used by the ablation benchmarks.
func New(opts ...xq.Option) *Generator {
	return &Generator{opts: opts}
}

// NewCopyPhases returns the generator running the paper's original
// five-phase pipeline, where phases 2-5 each copy the entire document.
// It exists for experiment E5 and the parity suite; New is the
// single-pass replacement.
func NewCopyPhases(opts ...xq.Option) *Generator {
	return &Generator{opts: opts, copyPhases: true}
}

// Name implements docgen.Generator.
func (*Generator) Name() string { return "xquery" }

// PhaseSources exposes the embedded XQuery programs of the five-phase
// pipeline (for LoC accounting in the experiment harness).
func PhaseSources() []string {
	return []string{phase1Src, phase2Src, phase3Src, phase4Src, phase5Src}
}

// UpdateSource exposes the single-pass update program replacing phases 2-5.
func UpdateSource() string { return updateSrc }

func (g *Generator) compile() error {
	g.once.Do(func() {
		g.sources = [5]string{phase1Src, phase2Src, phase3Src, phase4Src, phase5Src}
		if g.copyPhases {
			for i, src := range g.sources {
				q, err := xq.CompileCached(src, g.opts...)
				if err != nil {
					g.err = fmt.Errorf("xqgen: phase %d does not compile: %w", i+1, err)
					return
				}
				g.phases[i] = q
			}
			return
		}
		q, err := xq.CompileCached(phase1Src, g.opts...)
		if err != nil {
			g.err = fmt.Errorf("xqgen: phase 1 does not compile: %w", err)
			return
		}
		g.phases[0] = q
		up, err := xq.CompileUpdateCached(updateSrc, g.opts...)
		if err != nil {
			g.err = fmt.Errorf("xqgen: update program does not compile: %w", err)
			return
		}
		g.update = up
	})
	return g.err
}

// GenerateMode implements docgen.Generator. Only FailFast is supported:
// the XQuery phases are pure functions whose only failure channel is the
// exception that aborts the whole evaluation — the paper's C1 asymmetry.
// There is no seam where a degraded run could note a problem and continue,
// so Accumulate returns docgen.ErrModeUnsupported.
func (g *Generator) GenerateMode(model *awb.Model, template *xmltree.Node, mode docgen.Mode) (*docgen.Result, error) {
	if mode != docgen.FailFast {
		return nil, fmt.Errorf("%w: the xquery generator cannot run in %s mode", docgen.ErrModeUnsupported, mode)
	}
	return g.Generate(model, template)
}

// Generate implements docgen.Generator.
func (g *Generator) Generate(model *awb.Model, template *xmltree.Node) (*docgen.Result, error) {
	if err := g.compile(); err != nil {
		return nil, err
	}
	// Frozen, so that the program's keyed lookups — node[@id = …],
	// relation[@source = …], property[@name = …] — are index probes.
	modelDoc := xmltree.Freeze(model.ExportXML())
	tplDoc := template
	if tplDoc.Kind != xmltree.DocumentNode {
		tplDoc = xmltree.NewDocument()
		tplDoc.AppendChild(template.Clone())
	}
	vars := map[string]xq.Sequence{
		"model":    xq.Singleton(xq.NewNodeItem(modelDoc)),
		"template": xq.Singleton(xq.NewNodeItem(tplDoc)),
	}
	// Phase 1: generate, with INTERNAL-DATA plumbing.
	cur, err := g.runPhase(0, nil, vars)
	if err != nil {
		return nil, err
	}
	modelOnly := map[string]xq.Sequence{"model": vars["model"]}
	if !g.copyPhases {
		return g.generateSinglePass(cur, modelOnly)
	}
	// Phases 2-4 re-copy the whole document each time — "fairly
	// inefficient, requiring multiple copies of the entire output".
	if cur, err = g.runPhase(1, cur, modelOnly); err != nil {
		return nil, err
	}
	if cur, err = g.runPhase(2, cur, nil); err != nil {
		return nil, err
	}
	if cur, err = g.runPhase(3, cur, nil); err != nil {
		return nil, err
	}
	split, err := g.runPhase(4, cur, nil)
	if err != nil {
		return nil, err
	}
	return splitResult(split)
}

// generateSinglePass applies the update program to the phase-1 output.
// Every statement evaluates against the unchanged generation snapshot, so
// the cross-phase analyses (visited nodes, section headings, replacement
// markers) read one tree; the pending-update list then materializes only
// the touched spine. The problems stream is read off the same snapshot —
// the update program's INTERNAL-DATA purge would otherwise destroy it.
func (g *Generator) generateSinglePass(genRoot *xmltree.Node, vars map[string]xq.Sequence) (*docgen.Result, error) {
	problems := collectProblems(genRoot)
	ctx := xmltree.NewDocument()
	ctx.AppendChild(genRoot)
	xmltree.Freeze(ctx)

	evalOpts := []xq.Option{xq.WithVars(vars)}
	var st xq.EvalStats
	if g.slowHook != nil {
		evalOpts = append(evalOpts, xq.WithStats(&st))
	}
	out, err := g.update.Transform(nil, ctx, evalOpts...)
	if g.slowHook != nil && st.Wall >= g.slowThreshold {
		g.slowHook(2, st)
	}
	if err != nil {
		return nil, fmt.Errorf("xqgen: update program failed: %w", err)
	}
	var root *xmltree.Node
	for _, c := range out.Children() {
		if c.Kind == xmltree.ElementNode {
			root = c
			break
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xqgen: update program produced no document element")
	}
	res := &docgen.Result{Document: xmltree.NewDocument(), Problems: problems}
	for _, k := range root.Children() {
		res.Document.AppendChild(k.Clone())
	}
	return res, nil
}

// collectProblems gathers the problems stream from a generation snapshot:
// the string values of //INTERNAL-DATA/PROBLEM in document order, exactly
// as phase 5 extracts them.
func collectProblems(n *xmltree.Node) []string {
	var out []string
	var walk func(*xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.Kind == xmltree.ElementNode && n.Name == "PROBLEM" &&
			n.Parent != nil && n.Parent.Kind == xmltree.ElementNode && n.Parent.Name == "INTERNAL-DATA" {
			out = append(out, n.StringValue())
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// runPhase evaluates one phase. ctxRoot, when non-nil, is the <GEN-ROOT>
// element from the previous phase, wrapped as the context document.
func (g *Generator) runPhase(i int, ctxRoot *xmltree.Node, vars map[string]xq.Sequence) (*xmltree.Node, error) {
	var ctx *xmltree.Node
	if ctxRoot != nil {
		ctx = xmltree.NewDocument()
		ctx.AppendChild(ctxRoot)
	}
	evalOpts := []xq.Option{xq.WithVars(vars)}
	var st xq.EvalStats
	if g.slowHook != nil {
		evalOpts = append(evalOpts, xq.WithStats(&st))
	}
	out, err := g.phases[i].Eval(nil, ctx, evalOpts...)
	if g.slowHook != nil && st.Wall >= g.slowThreshold {
		g.slowHook(i+1, st)
	}
	if err != nil {
		return nil, fmt.Errorf("xqgen: phase %d failed: %w", i+1, err)
	}
	if len(out) != 1 {
		return nil, fmt.Errorf("xqgen: phase %d returned %d items, want 1", i+1, len(out))
	}
	n, ok := xdm.IsNode(out[0])
	if !ok {
		return nil, fmt.Errorf("xqgen: phase %d returned a non-node", i+1)
	}
	if n.Kind == xmltree.ElementNode && n.Name == "error" && n.AttrOr("gen-error", "") == "true" {
		return nil, errorFromElement(n)
	}
	return n, nil
}

func errorFromElement(n *xmltree.Node) error {
	e := &GenError{}
	for _, c := range n.Children() {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		switch c.Name {
		case "message":
			e.Message = c.StringValue()
		case "location":
			e.Location = c.StringValue()
		case "focus":
			e.FocusID = c.StringValue()
		}
	}
	return e
}

// splitResult unbundles the phase-5 <SPLIT-OUTPUT> into the two streams.
func splitResult(split *xmltree.Node) (*docgen.Result, error) {
	res := &docgen.Result{Document: xmltree.NewDocument()}
	for _, c := range split.Children() {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		switch c.Name {
		case "document":
			for _, k := range c.Children() {
				res.Document.AppendChild(k.Clone())
			}
		case "problems":
			for _, p := range c.Children() {
				if p.Kind == xmltree.ElementNode && p.Name == "problem" {
					res.Problems = append(res.Problems, p.StringValue())
				}
			}
		}
	}
	return res, nil
}
