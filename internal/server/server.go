// Package server is xqd's engine room: a fault-tolerant HTTP/JSON query
// daemon over a persistent named-collection store. It composes the pieces
// the engine already had — Limits budgets, COW-frozen documents, plan
// caching, expvar metrics, fault injection — into a process designed to
// stay up under overload and partial failure:
//
//   - Admission control: bounded concurrency plus a bounded wait queue
//     with deadline-aware rejection; every refusal is a 503 with a
//     structured body and Retry-After (see admission.go).
//   - Graceful degradation: a shed ladder rejects the cheapest-to-retry
//     class first; /healthz stays green throughout (liveness never lies
//     about overload), /readyz reports it honestly.
//   - Per-request budgets: client limit hints clamped by server policy;
//     the tighter of the clamped Limits.Timeout and the request context
//     deadline wins, surfacing LOPS0001 — admission rejections surface
//     503 instead (limits.go tests pin the thresholds).
//   - One xq.Cache of plans per tenant (tenant.go) and snapshot-pinned
//     collection stores (store/) so neither a reload nor a noisy tenant can
//     touch an in-flight evaluation.
//   - Graceful drain: stop admitting, let in-flight work finish inside a
//     grace period, then cancel the stragglers with LOPS0001 semantics,
//     flush a final metrics snapshot, and only then close the listener.
//
// /query and /transform are one request pipeline (endpoint.ServeHTTP): each
// of those safeguards is applied at exactly one place in it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lopsided/internal/faultinject"
	"lopsided/internal/obs"
	"lopsided/internal/server/store"
	"lopsided/internal/xquery/interp"
	"lopsided/xq"
)

// Config is the daemon's policy surface. The zero value serves with the
// documented defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe; "" means ":8399".
	Addr string

	// MaxConcurrent bounds simultaneously evaluating queries; 0 means 4.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an evaluation slot; 0 means
	// 4 × MaxConcurrent.
	MaxQueue int
	// MaxWait bounds time spent waiting in the queue; 0 means 2s.
	MaxWait time.Duration

	// DefaultLimits apply when the client sends no hint. Zero fields fall
	// back to: Timeout 5s, MaxSteps 5M, MaxNodes 1M, MaxOutputBytes 8MB.
	DefaultLimits interp.Limits
	// MaxLimits clamp client hints; zero fields fall back to
	// 4 × the (defaulted) DefaultLimits value.
	MaxLimits interp.Limits

	// DrainGrace is how long Shutdown lets in-flight evaluations finish
	// before cancelling them; 0 means 5s.
	DrainGrace time.Duration

	// MaxBodyBytes bounds a request body; 0 means 1MB.
	MaxBodyBytes int64

	// Injector, when non-nil, injects faults into store loads and (via
	// the chaos harness) request handling. Nil in production.
	Injector *faultinject.Injector
	// ReloadRetry is the backoff policy around store (re)loads; the zero
	// value retries 3× from 1ms. Give it Jitter+Seed for chaos runs.
	ReloadRetry faultinject.Backoff
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8399"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Second
	}
	if c.DefaultLimits.Timeout <= 0 {
		c.DefaultLimits.Timeout = 5 * time.Second
	}
	if c.DefaultLimits.MaxSteps <= 0 {
		c.DefaultLimits.MaxSteps = 5_000_000
	}
	if c.DefaultLimits.MaxNodes <= 0 {
		c.DefaultLimits.MaxNodes = 1_000_000
	}
	if c.DefaultLimits.MaxOutputBytes <= 0 {
		c.DefaultLimits.MaxOutputBytes = 8 << 20
	}
	if c.MaxLimits.Timeout <= 0 {
		c.MaxLimits.Timeout = 4 * c.DefaultLimits.Timeout
	}
	if c.MaxLimits.MaxSteps <= 0 {
		c.MaxLimits.MaxSteps = 4 * c.DefaultLimits.MaxSteps
	}
	if c.MaxLimits.MaxNodes <= 0 {
		c.MaxLimits.MaxNodes = 4 * c.DefaultLimits.MaxNodes
	}
	if c.MaxLimits.MaxOutputBytes <= 0 {
		c.MaxLimits.MaxOutputBytes = 4 * c.DefaultLimits.MaxOutputBytes
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// clampLimits composes the client's limit hints with server policy: a zero
// hint takes the server default; a nonzero hint is honored up to the
// server maximum. The result is never unlimited in any dimension — the
// daemon refuses to run unbudgeted work.
func clampLimits(hint, def, max interp.Limits) interp.Limits {
	return interp.Limits{
		Timeout:        clamp(hint.Timeout, def.Timeout, max.Timeout),
		MaxSteps:       clamp(hint.MaxSteps, def.MaxSteps, max.MaxSteps),
		MaxNodes:       clamp(hint.MaxNodes, def.MaxNodes, max.MaxNodes),
		MaxOutputBytes: clamp(hint.MaxOutputBytes, def.MaxOutputBytes, max.MaxOutputBytes),
		MaxDepth:       hint.MaxDepth, // 0 keeps the interpreter default
	}
}

func clamp[T int64 | time.Duration](hint, def, max T) T {
	if hint <= 0 {
		hint = def
	}
	return min(hint, max)
}

// Server is one daemon instance.
type Server struct {
	cfg     Config
	store   *store.Store
	adm     *admission
	metrics *Metrics
	tenants tenants
	start   time.Time

	// hardCtx is cancelled when the drain grace expires; every in-flight
	// evaluation's context descends from the request context AND this one.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// inFlight tracks running query evaluations for the drain barrier.
	// Not a sync.WaitGroup: a request already past admission can still be
	// on its way to add() when Shutdown starts waiting, and WaitGroup
	// forbids an Add concurrent with Wait across zero. The cond-based
	// counter tolerates that doorway race; http.Server.Shutdown backstops
	// the sliver that slips past the final zero.
	inFlight inflightCounter

	drainOnce sync.Once
	httpSrv   *http.Server

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...interface{})
}

// New opens the data directory and builds a serving daemon. Store problems
// (missing directory, empty corpus, unparsable documents) fail here so the
// caller can exit with a config-class error before binding a socket.
func New(dataDir string, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	opts := store.Options{Retry: cfg.ReloadRetry}
	if cfg.Injector != nil {
		opts.Hook = cfg.Injector.Hit
	}
	st, err := store.Open(dataDir, opts)
	if err != nil {
		return nil, err
	}
	return NewWithStore(st, cfg), nil
}

// NewWithStore builds a daemon over an already-open store (tests and
// embedders that manage the store themselves).
func NewWithStore(st *store.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := &Metrics{}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      st,
		adm:        newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.MaxWait, m),
		metrics:    m,
		tenants:    tenants{m: make(map[string]*tenant)},
		start:      time.Now(),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
	}
	publishExpvar(m)
	return s
}

// Metrics exposes the daemon's metric family (tests, embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store exposes the collection store.
func (s *Server) Store() *store.Store { return s.store }

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ---- HTTP surface ----

// Handler returns the daemon's full route table. Every handler is wrapped
// in a panic container that turns residual panics into structured 500s —
// the engine already contains evaluation panics (LOPS0009), this catches
// bugs in the daemon itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/query", s.queryEndpoint())
	mux.Handle("/transform", s.transformEndpoint())
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/collections", s.handleCollections)
	mux.HandleFunc("/reload", s.handleReload)
	return s.contain(mux)
}

func (s *Server) contain(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				writeError(w, http.StatusInternalServerError, CodeHandlerPanic,
					fmt.Sprintf("contained handler panic: %v", p), false, 0)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// QueryRequest is the /query wire format. All limit hints are optional and
// clamped by server policy.
type QueryRequest struct {
	// Query is the XQuery source (required).
	Query string `json:"query"`
	// Collection names the collection whose synthetic root becomes the
	// context item; "" evaluates with no context item (pure expressions).
	Collection string `json:"collection,omitempty"`
	// Tenant selects the plan cache; "" means "default".
	Tenant string `json:"tenant,omitempty"`
	// Class is "interactive" (default) or "batch"; batch sheds first.
	Class string `json:"class,omitempty"`
	// Limit hints, clamped by server policy.
	TimeoutMs      int64 `json:"timeout_ms,omitempty"`
	MaxSteps       int64 `json:"max_steps,omitempty"`
	MaxNodes       int64 `json:"max_nodes,omitempty"`
	MaxOutputBytes int64 `json:"max_output_bytes,omitempty"`
}

func (r *QueryRequest) call() (call, string) {
	if r.Query == "" {
		return call{}, `missing "query"`
	}
	return call{src: r.Query, collection: r.Collection, tenant: r.Tenant, class: r.Class,
		timeoutMs: r.TimeoutMs, maxSteps: r.MaxSteps, maxNodes: r.MaxNodes, maxOutputBytes: r.MaxOutputBytes}, ""
}

// responseHead opens both success bodies.
type responseHead struct {
	Result     string `json:"result"`
	Collection string `json:"collection,omitempty"`
	Tenant     string `json:"tenant"`
	PlanCache  string `json:"plan_cache"` // "hit" or "miss"
}

// QueryResponse is the /query success body.
type QueryResponse struct {
	responseHead
	Stats queryStats `json:"stats"`
}

type queryStats struct {
	Steps       int64   `json:"steps"`
	Nodes       int64   `json:"nodes"`
	OutputBytes int64   `json:"output_bytes"`
	WallMs      float64 `json:"wall_ms"`
}

func (s *Server) queryEndpoint() *endpoint {
	return &endpoint{
		s:          s,
		newRequest: func() wireRequest { return new(QueryRequest) },
		compile:    (*xq.Cache).Compile,
		ok:         []*atomic.Int64{&s.metrics.EvalOK},
		failed:     []*atomic.Int64{&s.metrics.EvalErrors},
		respond: func(head responseHead, st xq.EvalStats, wallMs float64) any {
			return QueryResponse{head, queryStats{st.Steps, st.Nodes, st.OutputBytes, wallMs}}
		},
	}
}

// ---- The request pipeline ----

// call is the endpoint-independent view of a decoded request body.
type call struct {
	src, collection, tenant, class                string
	timeoutMs, maxSteps, maxNodes, maxOutputBytes int64 // limit hints
}

// wireRequest is a request body as decoded: call returns its
// endpoint-independent view, or says which required field is missing.
type wireRequest interface {
	call() (c call, missing string)
}

// endpoint is the handler of /query or /transform: its fields carry
// everything that differs between the two, its ServeHTTP everything they
// share.
type endpoint struct {
	s *Server
	// newRequest allocates the wire struct the body decodes into.
	newRequest func() wireRequest
	// compile looks the program up in (or compiles it into) the tenant's
	// plan cache, as a query or as an update program.
	compile func(*xq.Cache, string, ...xq.Option) (*xq.Query, error)
	// ok and failed are the outcome counters a request bumps.
	ok, failed []*atomic.Int64
	// recode maps engine error codes onto the daemon's own (nil: none).
	recode map[string]string
	// respond builds the success body.
	respond func(head responseHead, st xq.EvalStats, wallMs float64) any
}

// evaluate runs a compiled plan the way its kind demands. A transformed
// root comes back as a one-node sequence, which serializes to exactly the
// root's own String(), so both kinds share the accounting and encoding. It
// is a function over the plan's kind, not a func-valued endpoint field: the
// option closures stay on the stack only across direct calls (4 allocs/op).
func evaluate(ctx context.Context, q *xq.Query, root *xq.Node, opts ...xq.Option) (xq.Sequence, error) {
	if !q.IsUpdate() {
		return q.Eval(ctx, root, opts...)
	}
	out, err := q.Transform(ctx, root, opts...)
	if err != nil {
		return nil, err
	}
	return xq.Singleton(xq.NewNodeItem(out)), nil
}

// rejectCodes maps each admission refusal onto its SRV code.
var rejectCodes = [...]string{
	RejectQueueFull:   CodeQueueFull,
	RejectDegraded:    CodeShed,
	RejectDraining:    CodeDraining,
	RejectDeadline:    CodeDeadline,
	RejectWaitTimeout: CodeQueueFull,
}

func bump(counters []*atomic.Int64) {
	for _, c := range counters {
		c.Add(1)
	}
}

// ServeHTTP is the one request pipeline: method check → bounded decode →
// validate → snapshot/collection lookup → clamp limits → request∧drain
// context → admit → in-flight accounting → cached compile → run under
// Limits/stats/resolver → account → encode.
func (ep *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := ep.s
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST only", false, 0)
		return
	}
	s.metrics.Requests.Add(1)
	badRequest := func(status int, code, msg string) {
		s.metrics.BadRequests.Add(1)
		writeError(w, status, code, msg, false, 0)
	}

	// One byte past the bound is read so that an oversized body is
	// told apart from one that merely ends mid-value.
	body := &io.LimitedReader{R: r.Body, N: s.cfg.MaxBodyBytes + 1}
	wire := ep.newRequest()
	err := json.NewDecoder(body).Decode(wire)
	if body.N <= 0 {
		badRequest(http.StatusRequestEntityTooLarge, CodeBadRequest,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	if err != nil {
		badRequest(http.StatusBadRequest, CodeBadRequest, "bad request body: "+err.Error())
		return
	}
	req, missing := wire.call()
	if missing != "" {
		badRequest(http.StatusBadRequest, CodeBadRequest, missing)
		return
	}

	// Resolve the collection before spending a queue slot: a 404 is
	// cheaper than an admission.
	snap := s.store.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, CodeNotReady, "store not loaded", true, time.Second)
		return
	}
	var root *xq.Node
	if req.collection != "" {
		col, ok := snap.Collection(req.collection)
		if !ok {
			badRequest(http.StatusNotFound, CodeNoCollection,
				fmt.Sprintf("unknown collection %q (have %v)", req.collection, snap.Names()))
			return
		}
		root = col.Root
	}

	limits := clampLimits(interp.Limits{
		Timeout:        time.Duration(req.timeoutMs) * time.Millisecond,
		MaxSteps:       req.maxSteps,
		MaxNodes:       req.maxNodes,
		MaxOutputBytes: req.maxOutputBytes,
	}, s.cfg.DefaultLimits, s.cfg.MaxLimits)

	// The evaluation context descends from the request context (client
	// disconnects cancel work) and from hardCtx (drain-grace expiry
	// cancels the stragglers with LOPS0001 semantics).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	release, rej := s.adm.Acquire(ctx, ParseClass(req.class))
	if rej != nil {
		writeError(w, http.StatusServiceUnavailable, rejectCodes[rej.Reason], rej.Msg, true, rej.RetryAfter)
		return
	}
	s.inFlight.add()
	draining := s.adm.isDraining()
	defer func() {
		release()
		s.inFlight.done()
		if draining || s.adm.isDraining() {
			s.metrics.Drained.Add(1)
		}
	}()

	// Compile in the tenant's plan cache — inside the admission slot,
	// so a storm of cold or bad programs is bounded like any other work.
	if req.tenant == "" {
		req.tenant = "default"
	}
	var st xq.EvalStats
	var out xq.Sequence
	var wall time.Duration
	q, err := ep.compile(s.tenants.plans(req.tenant), req.src)
	if err == nil {
		startEval := time.Now()
		out, err = evaluate(ctx, q, root,
			xq.WithLimits(limits),
			xq.WithStats(&st),
			xq.WithDocResolver(snap.Resolver(req.collection)),
		)
		wall = time.Since(startEval)
		s.adm.observeLatency(wall)
		s.metrics.TotalSteps.Add(st.Steps)
		s.metrics.TotalNodes.Add(st.Nodes)
		s.metrics.TotalOutputBytes.Add(st.OutputBytes)
		s.metrics.TotalWallNanos.Add(int64(wall))
		s.metrics.TotalUpdatesApplied.Add(st.UpdatesApplied) // zero for queries
		s.metrics.TotalSpineNodes.Add(st.SpineNodes)
		if err != nil {
			if xq.IsLimitError(err) {
				s.metrics.LimitHits.Add(1)
			}
			if s.hardCtx.Err() != nil {
				s.metrics.DrainCanceled.Add(1)
			}
		}
	}
	if err != nil {
		bump(ep.failed)
		status, code, retryable := engineErrorStatus(err)
		if c, ok := ep.recode[code]; ok {
			code = c
		}
		writeError(w, status, code, errorMessage(err), retryable, 0)
		return
	}
	bump(ep.ok)

	head := responseHead{Result: xq.Serialize(out), Collection: req.collection, Tenant: req.tenant, PlanCache: "miss"}
	if st.PlanCacheHit {
		head.PlanCache = "hit"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ep.respond(head, st, float64(wall)/float64(time.Millisecond)))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: green as long as the process can answer at all — overload
	// and draining are readiness concerns, and lying about liveness gets
	// a struggling-but-working process killed mid-drain.
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","uptime_ms":%d}`+"\n", time.Since(s.start).Milliseconds())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.adm.isDraining() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining", true, 2*time.Second)
		return
	}
	if s.store.Snapshot() == nil {
		writeError(w, http.StatusServiceUnavailable, CodeNotReady, "store not loaded", true, time.Second)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ready","queue_depth":%d,"in_flight":%d}`+"\n",
		s.metrics.QueueDepth.Load(), s.metrics.InFlight.Load())
}

// handleMetrics serves the engine's process-wide obs snapshot next to the
// daemon's own server_ family.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Engine obs.Snapshot    `json:"engine"`
		Server MetricsSnapshot `json:"server"`
	}{xq.MetricsSnapshot(), s.metrics.Snapshot()})
}

// handleStats serves aggregate evaluation consumption, the global and
// per-tenant plan-cache scoreboards, and the store's current shape.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Snapshot()
	m := s.metrics.Snapshot()
	type storeStats struct {
		Version     int64    `json:"version"`
		Collections []string `json:"collections"`
		Docs        int      `json:"docs"`
		LoadedAt    string   `json:"loaded_at"`
	}
	type indexStats struct {
		// Process-wide access-path counters from the engine.
		Builds    int64   `json:"builds"`
		BuildMs   float64 `json:"build_ms"`
		Hits      int64   `json:"hits"`
		Fallbacks int64   `json:"fallbacks"`
		// Per-collection index state of the current snapshot.
		Collections []store.IndexInfo `json:"collections,omitempty"`
	}
	out := struct {
		Eval struct {
			OK          int64   `json:"ok"`
			Errors      int64   `json:"errors"`
			LimitHits   int64   `json:"limit_hits"`
			Steps       int64   `json:"total_steps"`
			Nodes       int64   `json:"total_nodes"`
			OutputBytes int64   `json:"total_output_bytes"`
			WallMs      float64 `json:"total_wall_ms"`
		} `json:"eval"`
		Transform struct {
			OK             int64 `json:"ok"`
			Errors         int64 `json:"errors"`
			UpdatesApplied int64 `json:"total_updates_applied"`
			SpineNodes     int64 `json:"total_spine_nodes"`
		} `json:"transform"`
		PlanCache xq.CacheStats               `json:"plan_cache"`
		Tenants   map[string]TenantCacheStats `json:"tenants"`
		Store     *storeStats                 `json:"store,omitempty"`
		Index     indexStats                  `json:"index"`
	}{}
	out.PlanCache, out.Tenants = s.tenants.stats()
	eng := xq.MetricsSnapshot().Index
	out.Index = indexStats{
		Builds:    eng.Builds,
		BuildMs:   float64(eng.BuildNanos) / float64(time.Millisecond),
		Hits:      eng.Hits,
		Fallbacks: eng.Fallbacks,
	}
	if snap != nil {
		out.Index.Collections = snap.IndexState()
	}
	out.Transform.OK = m.TransformOK
	out.Transform.Errors = m.TransformErrors
	out.Transform.UpdatesApplied = m.TotalUpdatesApplied
	out.Transform.SpineNodes = m.TotalSpineNodes
	out.Eval.OK = m.EvalOK
	out.Eval.Errors = m.EvalErrors
	out.Eval.LimitHits = m.LimitHits
	out.Eval.Steps = m.TotalSteps
	out.Eval.Nodes = m.TotalNodes
	out.Eval.OutputBytes = m.TotalOutputBytes
	out.Eval.WallMs = float64(m.TotalWallNanos) / float64(time.Millisecond)
	if snap != nil {
		out.Store = &storeStats{
			Version:     snap.Version,
			Collections: snap.Names(),
			Docs:        snap.Docs(),
			LoadedAt:    snap.LoadedAt.UTC().Format(time.RFC3339),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (s *Server) handleCollections(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, CodeNotReady, "store not loaded", true, time.Second)
		return
	}
	type colInfo struct {
		Name  string `json:"name"`
		Docs  int    `json:"docs"`
		Bytes int64  `json:"bytes"`
	}
	out := struct {
		Version     int64     `json:"version"`
		Collections []colInfo `json:"collections"`
	}{Version: snap.Version}
	for _, name := range snap.Names() {
		col, _ := snap.Collection(name)
		out.Collections = append(out.Collections, colInfo{Name: name, Docs: len(col.Docs), Bytes: col.Bytes})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST only", false, 0)
		return
	}
	s.metrics.Reloads.Add(1)
	if err := s.store.Reload(); err != nil {
		s.metrics.ReloadErrors.Add(1)
		// The previous snapshot keeps serving: report the failure but
		// stay up — stale beats dead.
		writeError(w, http.StatusInternalServerError, CodeReloadFailed,
			"reload failed (previous snapshot still serving): "+err.Error(), true, 5*time.Second)
		return
	}
	snap := s.store.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"reloaded","version":%d,"docs":%d}`+"\n", snap.Version, snap.Docs())
}

// ---- Lifecycle ----

// ListenAndServe binds cfg.Addr and serves until Shutdown. The returned
// error distinguishes bind failures (for cliutil.BindErr) from serve-loop
// failures; http.ErrServerClosed is filtered out as the clean-drain case.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return &BindError{Err: err}
	}
	return s.Serve(ln)
}

// BindError wraps a listen failure so callers can classify it.
type BindError struct{ Err error }

// Error implements the error interface.
func (e *BindError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped error.
func (e *BindError) Unwrap() error { return e.Err }

// Serve runs the HTTP server on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.logf("xqd: serving on %s (%d collections, %d docs)",
		ln.Addr(), len(s.store.Snapshot().Names()), s.store.Snapshot().Docs())
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// BeginDrain stops admitting new queries (readiness goes red, admission
// rejects with SRV0002 + Retry-After) without touching in-flight work.
// Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.logf("xqd: drain started (in-flight=%d queued=%d)",
			s.metrics.InFlight.Load(), s.metrics.QueueDepth.Load())
		s.adm.beginDrain()
	})
}

// Shutdown executes the drain protocol: stop admitting, wait up to
// DrainGrace for in-flight evaluations, cancel the stragglers (they
// surface LOPS0001 to their clients), flush the final metrics snapshot to
// the log, and close the HTTP server. Safe to call without Serve (tests
// drive the Handler directly).
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()

	done := make(chan struct{})
	go func() {
		s.inFlight.wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	clean := true
	select {
	case <-done:
	case <-grace.C:
		clean = false
		s.logf("xqd: drain grace (%v) expired with %d in flight; cancelling",
			s.cfg.DrainGrace, s.metrics.InFlight.Load())
		s.hardCancel()
		<-done // cancelled evaluations trip LOPS0001 and finish promptly
	case <-ctx.Done():
		clean = false
		s.hardCancel()
		<-done
	}
	s.hardCancel()

	// Flush: one final metrics snapshot on the way out.
	m := s.metrics.Snapshot()
	s.logf("xqd: drained (clean=%t) admitted=%d shed=%d drained=%d canceled=%d",
		clean, m.Admitted, m.Shed(), m.Drained, m.DrainCanceled)

	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	return nil
}

// inflightCounter is a WaitGroup that permits add() concurrent with wait():
// wait returns once the count reaches zero, and a doorway add that lands
// after that final zero is deliberately not waited for (see the field
// comment on Server.inFlight).
type inflightCounter struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func (c *inflightCounter) add() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *inflightCounter) done() {
	c.mu.Lock()
	c.n--
	if c.n == 0 && c.cond != nil {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

func (c *inflightCounter) wait() {
	c.mu.Lock()
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
	for c.n > 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}
