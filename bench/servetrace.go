package main

// servetrace.go is the traced pass of the two daemon workloads. The daemon
// is another process, so its layers are measured here by loading the same
// data directory into an in-process server and calling each layer's
// exported function on the requests the workload sends: the HTTP round trip
// to the child, Server.Handler().ServeHTTP with a recorder, Query.Eval,
// xq.Serialize, and for serve_churn the four compile stages and Transform.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"lopsided/internal/server"
	"lopsided/internal/server/store"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/lexer"
	"lopsided/internal/xquery/optimizer"
	"lopsided/internal/xquery/parser"
	"lopsided/internal/xquery/shapes"
	"lopsided/xq"
)

// serverDefaults are the limits the daemon applies to a request that sends
// no hints (server.Config's documented defaults).
var serverDefaults = xq.Limits{Timeout: 5 * time.Second, MaxSteps: 5_000_000, MaxNodes: 1_000_000, MaxOutputBytes: 8 << 20}

type servePass struct {
	s       *serveBench
	o       *outcome
	tr      *tracer
	st      *store.Store
	handler http.Handler
	failure error // a layer call that could not run at all
}

func (p *servePass) note(err error) {
	if err != nil && p.failure == nil {
		p.failure = err
	}
}

// check counts one answer computed in this process.
func (p *servePass) check(r request, got string) {
	bad := ""
	if got != r.want {
		bad = fmt.Sprintf("%s in process: got %s, want %s (%s)", r.class, clip(got), clip(r.want), clip(r.src))
	}
	p.o.check(bad)
}

func (s *serveBench) traced() (*outcome, error) {
	run, err := s.untraced(s.e.seconds / 2)
	if err != nil {
		return nil, err
	}
	m := run.m
	o := m.outcome()
	v := o.values
	v["server.shed_share"] = float64(run.shed) / float64(m.attempted)
	v["server.plan_hit_share"] = run.planHits
	v["server.lat_p99_ms"] = median(m.p99) // the tail as it was, neighbours included
	for class := range m.classP50 {
		v["server.class_p50_us."+class] = m.classBest(class) * 1e3
	}

	p := &servePass{s: s, o: o, tr: newTracer()}
	budget := s.e.layerBudget()
	p.st, err = store.Open(s.dataDir, store.Options{})
	if err != nil {
		return nil, err
	}
	v["store.open_ms"] = ms(timeCalls(3, 40, budget, func() {
		_, err := store.Open(s.dataDir, store.Options{})
		p.note(err)
	}).median)
	v["store.reload_ms"] = ms(timeCalls(3, 40, budget, func() { p.note(p.st.Reload()) }).median)
	p.handler = server.NewWithStore(p.st, server.Config{}).Handler()

	// The traced pass sends the round trips of the workload's largest class
	// one at a time from inside spans; the untraced windows send them from
	// two connections.
	class := "point"
	if s.name == "serve_hot" {
		p.hot()
	} else {
		class = "transform"
		p.churn()
	}
	if p.failure != nil {
		return nil, p.failure
	}
	if rt := us(p.tr.medianOf("server.http", class)); rt > 0 {
		v["bench.trace_overhead_share"] = 1 - v["server.class_p50_us."+class]/rt
	}
	return o, p.tr.write(s.e, s.name)
}

// sequence draws the fixed operation sequence of the traced pass.
func (p *servePass) sequence(n int) []request {
	rng := rand.New(rand.NewSource(p.s.e.seed*31 + 99))
	seq := make([]request, n)
	for i := range seq {
		seq[i] = p.s.next(rng, serveConns, i) // a connection number the windows do not use
	}
	return seq
}

// hot traces serve_hot: per class, the same requests go through the HTTP
// round trip, the in-process handler, the evaluator and the serializer.
func (p *servePass) hot() {
	s, v, tr := p.s, p.o.values, p.tr
	n := 600
	if s.e.smoke {
		n = 60
	}
	seq := p.sequence(n)
	col, _ := p.st.Snapshot().Collection("cat")
	root, resolver := col.Root, p.st.Snapshot().Resolver("cat")
	plans := map[string]*xq.Query{}
	for _, r := range s.prewarm {
		q, err := xq.Compile(r.src, xq.WithOptLevel(xq.O2))
		if err != nil {
			p.note(err)
			return
		}
		plans[r.src] = q
	}
	c := newConn(s.d.base)
	defer c.client.CloseIdleConnections()
	ctx := context.Background()

	for _, class := range []string{"point", "scan", "build"} {
		var ops []int // indexes into seq, also the op ids (from 1)
		for i, r := range seq {
			if r.class == class {
				ops = append(ops, i)
			}
		}
		if len(ops) == 0 {
			continue
		}
		per := float64(len(ops))
		httpSpan := make(map[int]int, len(ops))
		envSpan := make(map[int]int, len(ops))

		for _, i := range ops {
			r := seq[i]
			httpSpan[i] = tr.call("server.http", class, i+1, 0, func() {
				status, body, err := c.do(r)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %s", class, status, clip(string(body)))
				}
				p.note(err)
			})
		}

		reqs := make([]*http.Request, len(ops))
		recs := make([]*httptest.ResponseRecorder, len(ops))
		for k, i := range ops {
			reqs[k] = httptest.NewRequest("POST", seq[i].path, bytes.NewReader(seq[i].body))
			recs[k] = httptest.NewRecorder()
		}
		envAllocs := allocsAround(func() {
			for k, i := range ops {
				envSpan[i] = tr.call("server.envelope", class, i+1, httpSpan[i], func() { p.handler.ServeHTTP(recs[k], reqs[k]) })
			}
		}) / per
		for _, rec := range recs {
			if rec.Code != http.StatusOK {
				p.note(fmt.Errorf("%s in process: status %d: %s", class, rec.Code, clip(rec.Body.String())))
			}
		}

		outs := make([]xq.Sequence, len(ops))
		var steps, hits, fallbacks float64
		evalAllocs := allocsAround(func() {
			for k, i := range ops {
				var st xq.EvalStats
				id := tr.call("interp.eval", class, i+1, envSpan[i], func() {
					out, err := plans[seq[i].src].Eval(ctx, root, xq.WithLimits(serverDefaults), xq.WithStats(&st), xq.WithDocResolver(resolver))
					p.note(err)
					outs[k] = out
				})
				tr.count(id, "steps", float64(st.Steps))
				steps += float64(st.Steps)
				hits += float64(st.IndexHits)
				fallbacks += float64(st.IndexFallbacks)
			}
		}) / per
		texts := make([]string, len(ops))
		serAllocs := allocsAround(func() {
			for k, i := range ops {
				tr.call("xmltree.serialize", class, i+1, envSpan[i], func() { texts[k] = xq.Serialize(outs[k]) })
			}
		}) / per
		for k, i := range ops {
			p.check(seq[i], texts[k])
		}

		eval, ser := tr.medianOf("interp.eval", class), tr.medianOf("xmltree.serialize", class)
		v["interp.eval_us."+class] = us(eval)
		v["interp.eval_allocs."+class] = evalAllocs
		v["interp.steps_per_op."+class] = steps / per
		if class == "point" {
			env, rt := tr.medianOf("server.envelope", class), tr.medianOf("server.http", class)
			v["server.http_us"] = us(rt - env)
			v["server.envelope_us"] = us(env - eval - ser)
			v["server.envelope_allocs"] = envAllocs - evalAllocs - serAllocs
			v["interp.index_hits_per_op"] = hits / per
			v["interp.index_fallbacks_per_op"] = fallbacks / per
			p.o.notes = append(p.o.notes, fmt.Sprintf(
				"point, traced: round trip %.1f us = http %.1f + envelope %.1f + eval %.1f + serialize %.1f; untraced class p50 %.1f us at %d connections",
				us(rt), us(rt-env), us(env-eval-ser), us(eval), us(ser), v["server.class_p50_us.point"], serveConns))
		}
	}

	// Serialize the whole collection, the serializer's bulk rate.
	whole := xq.Singleton(xq.NewNodeItem(root))
	size := len(xq.Serialize(whole))
	v["xmltree.serialize_mb_s"] = mbPerS(size, timeCalls(3, 200, s.e.layerBudget(), func() { xq.Serialize(whole) }).median)

	// First index build: the first probe of a freshly loaded (so freshly
	// frozen) collection minus the same probe again.
	probe := plans[s.hot["point"][0].src]
	reps := 5
	if s.e.smoke {
		reps = 2
	}
	var builds []float64
	for i := 0; i < reps; i++ {
		st, err := store.Open(s.dataDir, store.Options{})
		if err != nil {
			p.note(err)
			break
		}
		col, _ := st.Snapshot().Collection("cat")
		first := time.Now()
		_, err = probe.Eval(ctx, col.Root)
		cold := time.Since(first)
		p.note(err)
		again := time.Now()
		_, err = probe.Eval(ctx, col.Root)
		warm := time.Since(again)
		p.note(err)
		tr.add("xmltree.index_build", "", 0, 0, first, first.Add(cold-warm))
		builds = append(builds, ms(cold-warm))
	}
	v["xmltree.index_build_ms"] = median(builds)
}

// churn traces serve_churn: the compile pipeline stage by stage over cold
// texts, and Transform plus serialization over the update programs.
func (p *servePass) churn() {
	s, v, tr := p.s, p.o.values, p.tr
	n := 300
	if s.e.smoke {
		n = 30
	}
	seq := p.sequence(n)
	col, _ := p.st.Snapshot().Collection("lib")
	root, resolver := col.Root, p.st.Snapshot().Resolver("lib")
	ctx := context.Background()
	var cold, xf []int
	for i, r := range seq {
		if r.class == "cold" {
			cold = append(cold, i)
		} else {
			xf = append(xf, i)
		}
	}

	// Whole compiles first, alone and without spans, so the allocation
	// count is theirs; the answers of the plans are checked as well.
	plans := make(map[int]*xq.Query, len(cold))
	v["xq.compile_allocs"] = allocsAround(func() {
		for _, i := range cold {
			q, err := xq.Compile(seq[i].src, xq.WithOptLevel(xq.O2))
			p.note(err)
			plans[i] = q
		}
	}) / float64(len(cold))
	if p.failure != nil {
		return
	}
	for _, i := range cold {
		var out xq.Sequence
		tr.call("interp.eval", "cold", i+1, 0, func() {
			var err error
			out, err = plans[i].Eval(ctx, root, xq.WithLimits(serverDefaults), xq.WithDocResolver(resolver))
			p.note(err)
		})
		p.check(seq[i], xq.Serialize(out))
	}
	v["interp.eval_us.cold"] = us(tr.medianOf("interp.eval", "cold"))
	// Then, per text, the whole compile and the four stages it runs, each
	// stage on the output of the one before. The gap is what xq.Compile
	// spends outside the stages, per text.
	opts := optimizer.Options{Level: optimizer.O2, TraceIsEffectful: true}
	var lexBytes int
	var lexTime time.Duration
	var gaps []float64
	for _, i := range cold {
		src := seq[i].src
		parent := tr.call("xq.compile", "cold", i+1, 0, func() {
			_, err := xq.Compile(src, xq.WithOptLevel(xq.O2))
			p.note(err)
		})
		if !strings.Contains(src, "</") { // direct constructors need the parser to drive the lexer
			id := tr.call("lexer.lex", "cold", i+1, parent, func() {
				lx := lexer.New(src)
				for {
					tok, err := lx.Next()
					if err != nil || tok.Kind == lexer.EOF {
						p.note(err)
						return
					}
				}
			})
			lexBytes += len(src)
			lexTime += tr.duration(id)
		}
		first := len(tr.spans)
		start := time.Now()
		mod, err := parser.Parse(src)
		tr.add("parser.parse", "cold", i+1, parent, start, time.Now())
		if err != nil {
			p.note(err)
			return
		}
		tr.call("optimizer.optimize", "cold", i+1, parent, func() { optimizer.Optimize(mod, opts) })
		var info *shapes.Info
		tr.call("shapes.infer", "cold", i+1, parent, func() { info = shapes.InferModule(mod) })
		tr.call("interp.compile", "cold", i+1, parent, func() {
			_, err := interp.NewProgramWithShapes(mod, info)
			p.note(err)
		})
		var stages time.Duration
		for id := first + 1; id <= len(tr.spans); id++ {
			stages += tr.duration(id)
		}
		whole := tr.duration(parent)
		gaps = append(gaps, float64(whole-stages)/float64(whole))
	}
	for _, name := range []string{"parser.parse", "optimizer.optimize", "shapes.infer", "interp.compile"} {
		v[name+"_us"] = us(tr.medianOf(name, ""))
	}
	v["lexer.mb_s"] = mbPerS(lexBytes, lexTime)
	v["xq.compile_us"] = us(tr.medianOf("xq.compile", ""))
	v["xq.compile_gap_share"] = median(gaps)

	// Transform and serialize, as /transform does after the plan lookup.
	updates := map[string]*xq.Query{}
	for _, r := range s.xforms {
		q, err := xq.CompileUpdate(r.src, xq.WithOptLevel(xq.O2))
		if err != nil {
			p.note(err)
			return
		}
		updates[r.src] = q
	}
	var spine, applied float64
	var serBytes int
	var serTime time.Duration
	c := newConn(s.d.base)
	defer c.client.CloseIdleConnections()
	for _, i := range xf {
		r := seq[i]
		rt := tr.call("server.http", "transform", i+1, 0, func() {
			status, body, err := c.do(r)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("transform: status %d: %s", status, clip(string(body)))
			}
			p.note(err)
		})
		var st xq.EvalStats
		var out *xq.Node
		id := tr.call("xq.transform", "transform", i+1, rt, func() {
			var err error
			out, err = updates[r.src].Transform(ctx, root, xq.WithLimits(serverDefaults), xq.WithStats(&st), xq.WithDocResolver(resolver))
			p.note(err)
		})
		if out == nil {
			return
		}
		tr.count(id, "spine_nodes", float64(st.SpineNodes))
		tr.count(id, "updates_applied", float64(st.UpdatesApplied))
		spine += float64(st.SpineNodes)
		applied += float64(st.UpdatesApplied)
		var text string
		sid := tr.call("xmltree.serialize", "transform", i+1, rt, func() { text = out.String() })
		serBytes += len(text)
		serTime += tr.duration(sid)
		p.check(r, text)
	}
	if applied > 0 {
		v["xmltree.spine_nodes_per_update"] = spine / applied
	}
	v["xmltree.serialize_mb_s"] = mbPerS(serBytes, serTime)
	p.o.notes = append(p.o.notes, fmt.Sprintf(
		"cold, traced: eval %.1f us, compile %.1f us; parse %.1f + optimize %.1f + shapes %.1f + lower %.1f, gap share %.3f; transform %.1f us + serialize %.1f us; untraced class p50 cold %.1f us, transform %.1f us",
		v["interp.eval_us.cold"], v["xq.compile_us"], v["parser.parse_us"], v["optimizer.optimize_us"], v["shapes.infer_us"], v["interp.compile_us"], v["xq.compile_gap_share"],
		us(tr.medianOf("xq.transform", "")), us(tr.medianOf("xmltree.serialize", "")),
		v["server.class_p50_us.cold"], v["server.class_p50_us.transform"]))
}
