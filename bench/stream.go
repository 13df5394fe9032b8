package main

// stream.go is the streaming ladder: one corpus file scanned by three
// queries, each of which the static analyses send to a different tier.
//
//	full-stream   count(//item[@k = 'kX'])   SAX evaluator, no tree
//	projected     sum(//item/@n)             pruned parse, then evaluate
//	materialize   count(//item[../blurb])    parent axis: whole tree
//
// The XML front end does nearly all the work here and none in the other
// workloads' steady state. The tiers split scanner cost (all three) from
// tree build, freeze and index cost (the last two) from SAX evaluator cost
// (the first only). One goroutine, in this process; an operation is one
// pass over the file.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/optimizer"
	"lopsided/internal/xquery/parser"
	"lopsided/internal/xquery/project"
	"lopsided/internal/xquery/stream"
	"lopsided/xq"
)

const (
	streamItems  = 32000 // the F6 corpus at 5.2 MB: a cycle of three passes takes about 1.4 s
	streamSetUps = 3     // a set-up is three passes over the corpus
)

type streamBench struct {
	e      *env
	corpus *streamCorpus
	path   string
	tiers  [3]*xq.StreamQuery
}

func newStreamBench(e *env, items int) (*streamBench, error) {
	s := &streamBench{e: e, corpus: newStreamCorpus(rand.New(rand.NewSource(e.seed)), items)}
	f, err := os.CreateTemp(e.out, "stream-corpus-*.xml")
	if err != nil {
		return nil, err
	}
	s.path = f.Name()
	if _, err := f.WriteString(s.corpus.xml); err != nil {
		f.Close()
		s.close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *streamBench) close() { os.Remove(s.path) }

// pass evaluates q over the corpus file.
func (s *streamBench) pass(q *xq.StreamQuery, opts ...xq.Option) (string, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return q.EvalReader(context.Background(), f, opts...)
}

// setUp compiles the three queries, checks that each resolves to the tier
// it is meant to exercise, and makes one discarded pass per tier.
func (s *streamBench) setUp() (time.Duration, error) {
	start := time.Now()
	for i, sq := range s.corpus.queries {
		q, err := xq.CompileStream(sq.src)
		if err != nil {
			return 0, fmt.Errorf("compile %s: %w", sq.src, err)
		}
		if got := q.Mode().String(); got != sq.tier {
			return 0, fmt.Errorf("%s resolves to tier %s, want %s", sq.src, got, sq.tier)
		}
		s.tiers[i] = q
		got, err := s.pass(q)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", sq.tier, err)
		}
		if got != sq.want {
			return 0, fmt.Errorf("%s: %s = %s, want %s", sq.tier, sq.src, got, sq.want)
		}
	}
	return time.Since(start), nil
}

type streamRun struct {
	m     *measured
	setup []float64
}

func (s *streamBench) untraced(seconds float64) (*streamRun, error) {
	run := &streamRun{}
	for i := 0; i < s.e.setUps(streamSetUps); i++ {
		t, err := s.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.setup = append(run.setup, t.Seconds())
	}
	// Set-up's discarded passes are the warm-up. A window is one cycle of
	// the three tiers, which takes about 1.4 s; the run makes as many as fit
	// into `seconds`.
	ed := &edges{cpu: selfCPU}
	var ops []opRec
	if err := ed.mark(); err != nil {
		return nil, err
	}
	for time.Since(ed.at[0]).Seconds() < seconds {
		for i, sq := range s.corpus.queries {
			t := time.Now()
			got, err := s.pass(s.tiers[i])
			end := time.Now()
			bad := ""
			if err != nil {
				bad = fmt.Sprintf("%s: %v", sq.tier, err)
			} else if got != sq.want {
				bad = fmt.Sprintf("%s: %s = %s, want %s", sq.tier, sq.src, got, sq.want)
			}
			ops = append(ops, opRec{class: sq.tier, end: end, lat: end.Sub(t), bad: bad})
		}
		if err := ed.mark(); err != nil {
			return nil, err
		}
	}
	m, err := aggregate(ed, ops)
	if err != nil {
		return nil, err
	}
	run.m = m
	return run, nil
}

// tierMBs is corpus bytes over the tier's pass time in its best window.
func (s *streamBench) tierMBs(m *measured, tier string) float64 {
	p50 := m.classBest(tier)
	if p50 <= 0 {
		return 0
	}
	return float64(len(s.corpus.xml)) / 1e6 / (p50 / 1e3)
}

func streamWorkload(e *env) (*outcome, error) {
	items := streamItems
	if e.smoke {
		items = 500
	}
	s, err := newStreamBench(e, items)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if e.trace {
		return s.traced()
	}
	run, err := s.untraced(e.seconds)
	if err != nil {
		return nil, err
	}
	rss, err := selfPeakRSSMB()
	if err != nil {
		return nil, err
	}
	o := run.m.outcome()
	o.values, o.spreads = run.m.endToEndValues(run.setup, rss)
	o.notes = append(run.m.classNotes("full-stream", "projected", "materialize"),
		fmt.Sprintf("corpus %d items, %.2f MB: full-stream %.2f MB/s, projected %.2f MB/s, materialize %.2f MB/s", items, float64(len(s.corpus.xml))/1e6,
			s.tierMBs(run.m, "full-stream"), s.tierMBs(run.m, "projected"), s.tierMBs(run.m, "materialize")))
	return o, nil
}

// traced measures each layer of the XML front end by calling it directly
// on the corpus, then cross-checks the tiers against each other.
func (s *streamBench) traced() (*outcome, error) {
	base, err := s.untraced(s.e.seconds / 2)
	if err != nil {
		return nil, err
	}
	o := base.m.outcome()
	v := o.values
	v["stream.full_mb_s"] = s.tierMBs(base.m, "full-stream")
	v["stream.projected_mb_s"] = s.tierMBs(base.m, "projected")
	v["stream.materialize_mb_s"] = s.tierMBs(base.m, "materialize")

	src, size := s.corpus.xml, len(s.corpus.xml)
	// Elements per document: catalog + per item: section, item, title, filler.
	elems := float64(1 + 4*s.corpus.items)
	reps := 7
	if s.e.smoke {
		reps = 2
	}
	tr := newTracer()
	op := 0
	// layer calls fn reps times inside spans and returns the median time
	// and the mean allocations per call.
	layer := func(name string, fn func()) callCost {
		allocs := allocsAround(func() {
			for i := 0; i < reps; i++ {
				op++
				tr.call(name, "", op, 0, fn)
			}
		})
		return callCost{median: tr.medianOf(name, ""), allocs: allocs / float64(reps)}
	}
	var failure error
	note := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}
	open := func() *os.File {
		f, err := os.Open(s.path)
		note(err)
		return f
	}

	scan := layer("xmltree.scan", func() {
		f := open()
		defer f.Close()
		sc := xmltree.NewScanner(f, xmltree.ParseOptions{})
		for {
			tok, err := sc.Next()
			if err != nil || tok.Kind == xmltree.TokEOF {
				note(err)
				return
			}
		}
	})
	v["xmltree.scan_mb_s"] = mbPerS(size, scan.median)
	v["xmltree.scan_allocs_per_elem"] = scan.allocs / elems

	var tree *xmltree.Node
	build := layer("xmltree.build", func() {
		f := open()
		defer f.Close()
		doc, err := xmltree.ParseReader(f)
		note(err)
		tree = doc
	})
	// Scan and build together: the builder alone is this minus the scan
	// row, which on this corpus is within the noise of either.
	v["xmltree.build_mb_s"] = mbPerS(size, build.median)
	v["xmltree.build_allocs_per_elem"] = build.allocs / elems

	parse := layer("xmltree.parse", func() {
		_, err := xmltree.Parse(src)
		note(err)
	})
	v["xmltree.parse_mb_s"] = mbPerS(size, parse.median)

	proj, err := projectionOf(s.corpus.queries[1].src)
	if err != nil {
		return nil, err
	}
	var pst xmltree.ProjStats
	projected := layer("xmltree.project", func() {
		f := open()
		defer f.Close()
		var err error
		_, pst, err = xmltree.ParseProjectedStats(f, proj, xmltree.ParseOptions{})
		note(err)
	})
	v["xmltree.project_mb_s"] = mbPerS(size, projected.median)
	v["xmltree.project_pruned_share"] = float64(pst.ElementsPruned) / float64(pst.ElementsPruned+pst.ElementsRetained)

	// Freeze needs an unfrozen tree each time; the parse that makes one is
	// outside the span.
	op++
	for i := 0; i < reps; i++ {
		f := open()
		doc, err := xmltree.ParseReader(f)
		f.Close()
		note(err)
		if err == nil {
			tr.call("xmltree.freeze", "", op, 0, func() { xmltree.Freeze(doc) })
		}
	}
	v["xmltree.freeze_ms"] = ms(tr.medianOf("xmltree.freeze", ""))

	full := s.tiers[0]
	sax := layer("stream.sax", func() {
		got, err := s.pass(full)
		note(err)
		if err == nil && got != s.corpus.queries[0].want {
			note(fmt.Errorf("full-stream: got %s, want %s", got, s.corpus.queries[0].want))
		}
	})
	// The SAX evaluator skips the subtrees its plan does not need, so its
	// pass can be quicker than the scan row, which tokenizes everything.
	v["stream.sax_allocs_per_elem"] = sax.allocs / elems
	if failure != nil {
		return nil, failure
	}
	runtime.KeepAlive(tree)
	tree = nil

	// Live heap per tier, F6's method: heap in use after a collection with
	// the tier's working set still referenced.
	heldBy := [3]func() (any, error){
		func() (any, error) { _, err := s.pass(full); return nil, err },
		func() (any, error) {
			f := open()
			defer f.Close()
			return xmltree.ParseProjected(f, proj)
		},
		func() (any, error) {
			f := open()
			defer f.Close()
			doc, err := xmltree.ParseReader(f)
			if err == nil {
				xmltree.Freeze(doc)
			}
			return doc, err
		},
	}
	for i, name := range []string{"full", "projected", "materialize"} {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		held, err := heldBy[i]()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heap := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
		if heap < 1 {
			heap = 1 // the SAX tier retains nothing
		}
		v["stream.live_heap_b."+name] = heap
		runtime.KeepAlive(held)
	}

	// The two streaming analyses CompileStream adds to a compile, called
	// directly on the optimized modules of the three queries.
	var mods []*ast.Module
	for _, sq := range s.corpus.queries {
		mod, err := optimizedModule(sq.src)
		if err != nil {
			return nil, err
		}
		mods = append(mods, mod)
	}
	k := 0
	v["project.analysis_us"] = us(timeCalls(30, 3000, s.e.layerBudget(), func() {
		stream.Classify(mods[k%3])
		project.Analyze(mods[k%3])
		k++
	}).median)

	// Every query in every tier it can run in must give the generator's
	// answer: projected ≡ materialized ≡ streamed, byte for byte.
	lower := map[string][]xq.Option{
		"projected":   {xq.WithStreamEval(false)},
		"materialize": {xq.WithStreamEval(false), xq.WithProjection(false)},
	}
	for i, sq := range s.corpus.queries {
		for tier, opts := range lower {
			if sq.tier == tier || (sq.tier == "materialize") {
				continue // already at or below this tier
			}
			got, err := s.pass(s.tiers[i], opts...)
			switch {
			case err != nil:
				o.check(fmt.Sprintf("%s forced to %s: %v", sq.src, tier, err))
			case got != sq.want:
				o.check(fmt.Sprintf("%s forced to %s: got %s, want %s", sq.src, tier, got, sq.want))
			default:
				o.check("")
			}
		}
	}
	if failure != nil {
		return nil, failure
	}

	// The same full-stream pass inside a span and in the untraced windows.
	v["bench.trace_overhead_share"] = 1 - median(base.m.classP50["full-stream"])/ms(sax.median) // median against median
	o.notes = append(o.notes, fmt.Sprintf("traced pass: %d layer calls; scan %.1f ms, parse-reader %.1f ms, projected parse %.1f ms, full-stream pass %.1f ms",
		op, ms(scan.median), ms(build.median), ms(projected.median), ms(sax.median)))
	return o, tr.write(s.e, "stream_ladder")
}

// optimizedModule parses src and optimizes it at the default level, which
// is the module xq.CompileStream hands to its analyses.
func optimizedModule(src string) (*ast.Module, error) {
	mod, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	optimizer.Optimize(mod, optimizer.Options{Level: optimizer.O2, TraceIsEffectful: true})
	return mod, nil
}

// projectionOf runs the path-projection analysis over src.
func projectionOf(src string) (*xmltree.Projection, error) {
	mod, err := optimizedModule(src)
	if err != nil {
		return nil, err
	}
	res := project.Analyze(mod)
	if res.Proj == nil {
		return nil, fmt.Errorf("no projection for %s: %s", src, res.Reason)
	}
	return res.Proj, nil
}
