package xq

// Streaming evaluation: compile a query once with CompileStream and evaluate
// it against documents read incrementally from an io.Reader. Two static
// analyses run at compile time and decide, per evaluation, how much of the
// document ever exists in memory:
//
//   - the pure-streaming classifier (internal/xquery/stream) recognizes the
//     downward-axis aggregate/serialize fragment and answers it straight from
//     the token stream with O(depth) memory;
//   - the path-projection analysis (internal/xquery/project) computes the
//     root-anchored paths the query can touch, so the parse materializes only
//     matching subtrees plus their ancestor shells.
//
// Both analyses are conservative: when either declines, EvalReader falls back
// to a full materializing parse, so an analysis gap can cost memory but never
// correctness. The fallback order is full-stream → projected → materialize.

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/project"
	"lopsided/internal/xquery/stream"
)

// StreamMode identifies which streaming tier served (or would serve) an
// evaluation.
type StreamMode int

// The streaming tiers, strongest first.
const (
	// StreamMaterialize parses the whole document into a tree, exactly like
	// ParseXMLReader + Eval.
	StreamMaterialize StreamMode = iota
	// StreamProjected parses only the projection's path set: matching
	// subtrees are materialized, ancestors are retained as shells, and
	// everything else is pruned during the parse.
	StreamProjected
	// StreamFull answers from the token stream without building a tree.
	StreamFull
)

// String returns the mode name as EvalStats and EXPLAIN print it.
func (m StreamMode) String() string {
	switch m {
	case StreamFull:
		return "full-stream"
	case StreamProjected:
		return "projected"
	}
	return "materialize"
}

// StreamQuery is a compiled query plus the static streaming verdicts. It
// embeds *Query, so everything a Query does (Eval against a parsed tree,
// Explain, …) still works; EvalReader adds the streaming entry point.
//
// A *StreamQuery is safe for concurrent use, like the Query it embeds.
type StreamQuery struct {
	*Query
	plan       *stream.Plan
	planReason string
	proj       *xmltree.Projection
	projReason string
}

// CompileStream compiles src like Compile and additionally runs the two
// streaming analyses over the optimized program. The analyses never fail
// compilation: a query outside their fragments compiles fine and simply
// evaluates in a lower tier (see Mode and Explain for the verdicts).
func CompileStream(src string, opts ...Option) (*StreamQuery, error) {
	q, err := Compile(src, opts...)
	if err != nil {
		return nil, err
	}
	sq := &StreamQuery{Query: q}
	mod := q.prog.Module()
	sq.plan, sq.planReason = stream.Classify(mod)
	res := project.Analyze(mod)
	sq.proj, sq.projReason = res.Proj, res.Reason
	return sq, nil
}

// Mode reports the tier EvalReader would use under the query's compile-time
// options (per-eval options can change it; see EvalReader).
func (q *StreamQuery) Mode() StreamMode { return q.mode(q.cfg) }

// mode resolves the tier for one evaluation's effective config. Full
// streaming additionally requires that no resource limits are configured:
// the SAX evaluator cannot charge step/node/output budgets, and silently
// ignoring a sandbox would be worse than materializing.
func (q *StreamQuery) mode(cfg config) StreamMode {
	if !cfg.noStreamEval && q.plan != nil && cfg.limits == (Limits{}) {
		return StreamFull
	}
	if !cfg.noProjection && q.proj != nil && !q.proj.EverythingNeeded() {
		return StreamProjected
	}
	return StreamMaterialize
}

// EvalReader evaluates the query against a document read from r, choosing
// the strongest applicable streaming tier, and returns the serialized result
// (identical to EvalString over the parsed document). Options override the
// query's defaults for this evaluation alone, exactly like Eval; WithStats
// additionally fills StreamMode, BytesScanned, and NodesPruned. Reading r is
// part of the evaluation: a document that fails to parse is a failed
// evaluation, traced, counted and reported like any other.
func (q *StreamQuery) EvalReader(ctx context.Context, r io.Reader, opts ...Option) (string, error) {
	var out string
	err := q.run(opts, false, func(cfg *config, ip *interp.Interp) error {
		mode := q.mode(*cfg)
		// A tier that never reaches the interpreter (the SAX tier, a failed
		// parse) reports zero evaluation counters, not the last run's.
		if cfg.stats != nil {
			*cfg.stats = EvalStats{}
		}
		var scanned, pruned int64
		var err error
		if mode == StreamFull {
			start := time.Now()
			var sst stream.Stats
			out, sst, err = q.plan.Run(r, xmltree.ParseOptions{})
			scanned = sst.BytesScanned
			if cfg.stats != nil {
				cfg.stats.Wall = time.Since(start)
			}
		} else {
			// The projected and materialize tiers are one parse: a nil
			// projection retains everything (the full document, frozen).
			proj := q.proj
			if mode == StreamMaterialize {
				proj = nil
			}
			var doc *Node
			var pst xmltree.ProjStats
			doc, pst, err = xmltree.ParseProjectedStats(r, proj, xmltree.ParseOptions{})
			scanned, pruned = pst.BytesRead, pst.ElementsPruned
			if err == nil {
				var seq Sequence
				seq, err = ip.EvalWithOpts(ctx, xdm.NewNode(doc), cfg.vars, interp.EvalOpts{Stats: cfg.stats})
				out = Serialize(seq)
			}
		}
		if st := cfg.stats; st != nil {
			st.StreamMode, st.BytesScanned, st.NodesPruned = mode.String(), scanned, pruned
		}
		return err
	})
	return out, err
}

// ParseProjected parses a document from r pruned to this query's projection
// path set: subtrees the query can touch are materialized, their ancestors
// are retained as shells, everything else is dropped during the parse. The
// returned tree is frozen and evaluates identically to the full parse for
// this query. When the analysis produced no projection, the full document
// is parsed.
func (q *StreamQuery) ParseProjected(r io.Reader) (*Node, error) {
	return xmltree.ParseProjected(r, q.proj)
}

// Explain extends the embedded Query's plan dump with the streaming
// verdicts: the resolved tier, the pure-streaming plan (or why the
// classifier declined), and the projection path set (or why the analysis
// bailed).
func (q *StreamQuery) Explain() string {
	var b strings.Builder
	b.WriteString(q.Query.Explain())
	if !strings.HasSuffix(b.String(), "\n") {
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "streaming: mode=%s\n", q.Mode())
	if q.plan != nil {
		fmt.Fprintf(&b, "  stream plan: %s\n", q.plan)
	} else {
		fmt.Fprintf(&b, "  stream plan: none (%s)\n", q.planReason)
	}
	switch {
	case q.proj == nil:
		fmt.Fprintf(&b, "  projection: none (%s)\n", q.projReason)
	case q.proj.EverythingNeeded():
		fmt.Fprintf(&b, "  projection: everything needed\n")
	default:
		fmt.Fprintf(&b, "  projection: %s\n", q.proj)
	}
	return b.String()
}
