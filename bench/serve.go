package main

// serve.go is the two daemon workloads. Both drive the real xqd binary as a
// child process over loopback HTTP with two closed-loop connections: the
// callers of xqd are programs that wait for each reply.
//
//	serve_hot    every plan cached, trees only read: 85% point (index probe,
//	             nearly pure envelope), 10% scan (predicate walked over one
//	             document), 5% build (constructors + serialize).
//	serve_churn  70% transform (a cached update program: COW apply +
//	             serialize the whole result) and 30% cold (a text never seen
//	             before: lex, parse, optimize, shapes, compile, with the
//	             tenant caches evicting). A cold request takes about twice
//	             a transform, so each class has about half the busy time.
//
// The shares put the pooled median inside the largest class and the pooled
// 95th percentile inside the slowest, never on a class boundary.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	serveConns  = 2
	checkEvery  = 50 // during the windows one response in checkEvery is verified
	serveWarmup = 2 * time.Second
	serveSetUps = 9
)

type serveBench struct {
	e       *env
	name    string
	dataDir string
	bin     string
	cat     *catCorpus
	lib     *libCorpus // nil for serve_hot
	hot     map[string][]request
	xforms  []request
	prewarm []request
	d       *daemon
}

func newServeBench(e *env, name string) (*serveBench, error) {
	s := &serveBench{e: e, name: name}
	rng := rand.New(rand.NewSource(e.seed))
	s.cat = newCatCorpus(rng)
	collections := map[string]map[string]string{"cat": s.cat.files()}
	if name == "serve_churn" {
		s.lib = newLibCorpus(rng)
		collections["lib"] = s.lib.files()
		s.xforms = transformRequests(rng, s.lib)
		s.prewarm = s.xforms
	} else {
		s.hot = hotRequests(rng, s.cat)
		for _, class := range []string{"point", "scan", "build"} {
			s.prewarm = append(s.prewarm, s.hot[class]...)
		}
	}
	bin, err := buildDaemon(e.root, filepath.Join(e.out, "bin"))
	if err != nil {
		return nil, err
	}
	s.bin = bin
	s.dataDir, err = os.MkdirTemp(e.out, name+"-data-")
	if err != nil {
		return nil, err
	}
	for col, files := range collections {
		dir := filepath.Join(s.dataDir, col)
		if err := os.Mkdir(dir, 0o755); err != nil {
			s.close()
			return nil, err
		}
		for file, text := range files {
			if err := os.WriteFile(filepath.Join(dir, file), []byte(text), 0o644); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

// close stops the daemon if one is running and removes the data directory.
func (s *serveBench) close() {
	if s.d != nil {
		_ = s.d.stop()
		s.d = nil
	}
	os.RemoveAll(s.dataDir)
}

// next draws the next request of connection c's stream.
func (s *serveBench) next(rng *rand.Rand, c, seq int) request {
	if s.name == "serve_churn" {
		if rng.Intn(100) < 30 {
			return coldRequest(rng, s.lib, fmt.Sprintf("u%d-%d", c, seq))
		}
		return s.xforms[rng.Intn(len(s.xforms))]
	}
	class := "point"
	switch p := rng.Intn(100); {
	case p >= 95:
		class = "build"
	case p >= 85:
		class = "scan"
	}
	return s.hot[class][rng.Intn(len(s.hot[class]))]
}

// ---- HTTP client ----

type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends r and returns the status and the body; the body is valid until
// the next call.
func (c *conn) do(r request) (int, []byte, error) {
	resp, err := c.client.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// verify compares a 200 response with the request's expected answer.
func verify(r request, body []byte) string {
	var resp struct {
		Result string `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("%s: undecodable response: %v", r.class, err)
	}
	if resp.Result != r.want {
		return fmt.Sprintf("%s: got %s, want %s (request %s)", r.class, clip(resp.Result), clip(r.want), clip(string(r.body)))
	}
	return ""
}

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "…"
	}
	return s
}

// ---- set-up ----

// coldStart execs the daemon, waits for /readyz and requests every plan the
// workload keeps hot once, which pays the store load, the freeze, the first
// index build and the compiles. It returns the elapsed time.
func (s *serveBench) coldStart() (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(s.bin, s.dataDir)
	if err != nil {
		return 0, err
	}
	s.d = d
	c := newConn(d.base)
	defer c.client.CloseIdleConnections()
	for _, r := range s.prewarm {
		status, body, err := c.do(r)
		if err != nil {
			return 0, fmt.Errorf("prewarm: %w", err)
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("prewarm: status %d: %s", status, clip(string(body)))
		}
		if bad := verify(r, body); bad != "" {
			return 0, fmt.Errorf("prewarm: %s", bad)
		}
	}
	return time.Since(start), nil
}

// setUp cold-starts the daemon serveSetUps times and leaves the last one up.
func (s *serveBench) setUp() ([]float64, error) {
	var secs []float64
	for i := 0; i < s.e.setUps(serveSetUps); i++ {
		if s.d != nil {
			if err := s.d.stop(); err != nil {
				return nil, fmt.Errorf("stop xqd: %w", err)
			}
			s.d = nil
		}
		t, err := s.coldStart()
		if err != nil {
			return nil, err
		}
		secs = append(secs, t.Seconds())
	}
	return secs, nil
}

// ---- load ----

type connLog struct {
	ops  []opRec
	shed int
}

// load runs the closed loops until the windows are over and returns the
// log of every operation.
func (s *serveBench) load(warm, window time.Duration) (*edges, []opRec, *connLog, error) {
	e := &edges{cpu: s.d.cpu}
	start := time.Now()
	measureFrom := start.Add(warm)
	stopAt := measureFrom.Add(nWindows * window)
	logs := make([]connLog, serveConns)
	var wg sync.WaitGroup
	for ci := 0; ci < serveConns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			log := &logs[ci]
			c := newConn(s.d.base)
			defer c.client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(s.e.seed*31 + int64(ci) + 1))
			for seq := 0; ; seq++ {
				r := s.next(rng, ci, seq)
				t := time.Now()
				if !t.Before(stopAt) {
					return
				}
				status, body, err := c.do(r)
				end := time.Now()
				bad := ""
				switch {
				case err != nil:
					bad = fmt.Sprintf("%s: %v", r.class, err)
				case status != http.StatusOK:
					if status == http.StatusServiceUnavailable {
						log.shed++
					}
					bad = fmt.Sprintf("%s: status %d: %s", r.class, status, clip(string(body)))
				case end.Before(measureFrom) || seq%checkEvery == 0:
					bad = verify(r, body)
				}
				log.ops = append(log.ops, opRec{class: r.class, end: end, lat: end.Sub(t), bad: bad})
			}
		}(ci)
	}
	// The edges are read here, beside the loops: a read costs one small
	// file read per window.
	var markErr error
	for w := 0; w <= nWindows && markErr == nil; w++ {
		time.Sleep(time.Until(measureFrom.Add(time.Duration(w) * window)))
		markErr = e.mark()
	}
	wg.Wait()
	if markErr != nil {
		return nil, nil, nil, markErr
	}
	total := &connLog{}
	var ops []opRec
	for i := range logs {
		ops = append(ops, logs[i].ops...)
		total.shed += logs[i].shed
	}
	return e, ops, total, nil
}

// planCounts adds up the tenants' plan-cache scoreboards from /stats.
func (s *serveBench) planCounts() (hits, misses int64, err error) {
	resp, err := http.Get(s.d.base + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Tenants map[string]struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, fmt.Errorf("decode /stats: %w", err)
	}
	for _, t := range st.Tenants {
		hits += t.Hits
		misses += t.Misses
	}
	return hits, misses, nil
}

// serveRun is what one untraced run measured.
type serveRun struct {
	m        *measured
	setup    []float64
	peakRSS  float64
	shed     int
	planHits float64 // share of requests in the run served from a cached plan
}

// untraced sets up, runs the windows over `seconds` and returns the
// measurement; the daemon stays up for a traced pass to use.
func (s *serveBench) untraced(seconds float64) (*serveRun, error) {
	setup, err := s.setUp()
	if err != nil {
		return nil, err
	}
	h0, m0, err := s.planCounts()
	if err != nil {
		return nil, err
	}
	e, ops, log, err := s.load(s.e.warm(serveWarmup), windowLength(seconds))
	if err != nil {
		return nil, err
	}
	h1, m1, err := s.planCounts()
	if err != nil {
		return nil, err
	}
	m, err := aggregate(e, ops)
	if err != nil {
		return nil, err
	}
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	run := &serveRun{m: m, setup: setup, peakRSS: rss, shed: log.shed}
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		run.planHits = float64(h1-h0) / float64(n)
	}
	return run, nil
}

func serveWorkload(e *env, name string) (*outcome, error) {
	s, err := newServeBench(e, name)
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
	o := run.m.outcome()
	o.values, o.spreads = run.m.endToEndValues(run.setup, run.peakRSS)
	o.notes = run.m.classNotes("point", "scan", "build", "cold", "transform")
	return o, nil
}
