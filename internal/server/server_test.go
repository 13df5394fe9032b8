package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lopsided/internal/xquery/interp"
)

// writeTestCorpus lays out a small two-collection data directory.
func writeTestCorpus(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"library/books.xml": `<lib>` +
			`<book year="2005"><title>Lopsided Little Languages</title><author>Bloom</author></book>` +
			`<book year="2002"><title>XQuery from the Experts</title><author>Katz</author></book>` +
			`</lib>`,
		"library/journals.xml": `<lib><journal><title>SIGMOD Record</title></journal></lib>`,
		"awb/model.xml":        `<awb><system name="crm"/><system name="erp"/><system name="hr"/></awb>`,
	}
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(writeTestCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post drives one /query request through the handler without a network.
func post(t testing.TB, h http.Handler, req QueryRequest) *httptest.ResponseRecorder {
	t.Helper()
	return postCtx(t, h, context.Background(), req)
}

func postCtx(t testing.TB, h http.Handler, ctx context.Context, req QueryRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func decodeError(t testing.TB, rec *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("status %d body is not a structured error: %v (%q)", rec.Code, err, rec.Body.String())
	}
	if body.Error.Code == "" {
		t.Fatalf("status %d error body has no code: %q", rec.Code, rec.Body.String())
	}
	return body
}

func TestQueryAgainstCollection(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := post(t, h, QueryRequest{
		Query:      `for $t in /collection//title return string($t)`,
		Collection: "library",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := "Lopsided Little Languages XQuery from the Experts SIGMOD Record"
	if resp.Result != want {
		t.Fatalf("result = %q, want %q", resp.Result, want)
	}
	if resp.PlanCache != "miss" {
		t.Fatalf("first query plan_cache = %q, want miss", resp.PlanCache)
	}
	if resp.Stats.Steps == 0 {
		t.Fatal("stats.steps not reported")
	}

	// Same tenant, same query: plan-cache hit.
	rec = post(t, h, QueryRequest{Query: `for $t in /collection//title return string($t)`, Collection: "library"})
	var resp2 QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.PlanCache != "hit" {
		t.Fatalf("second query plan_cache = %q, want hit", resp2.PlanCache)
	}

	// A different tenant compiles its own plan.
	rec = post(t, h, QueryRequest{Query: `for $t in /collection//title return string($t)`, Collection: "library", Tenant: "acme"})
	var resp3 QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp3); err != nil {
		t.Fatal(err)
	}
	if resp3.PlanCache != "miss" {
		t.Fatalf("new tenant plan_cache = %q, want miss (isolated caches)", resp3.PlanCache)
	}
}

func TestQueryFnDocResolvesWithinSnapshot(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s.Handler(), QueryRequest{
		Query:      `count(doc("journals")//title) + count(doc("awb/model")//system)`,
		Collection: "library",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result != "4" {
		t.Fatalf("result = %q, want 4 (1 journal + 3 systems)", resp.Result)
	}
}

func TestQueryWithoutCollection(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s.Handler(), QueryRequest{Query: `sum(1 to 10)`})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Result != "55" {
		t.Fatalf("result = %q", resp.Result)
	}
}

func TestQueryErrorTaxonomy(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name       string
		req        QueryRequest
		wantStatus int
		wantCode   string
	}{
		{"empty body", QueryRequest{}, http.StatusBadRequest, CodeBadRequest},
		{"unknown collection", QueryRequest{Query: `1`, Collection: "nope"}, http.StatusNotFound, CodeNoCollection},
		{"syntax error", QueryRequest{Query: `for $x in`}, http.StatusBadRequest, "XPST0003"},
		{"undefined variable", QueryRequest{Query: `$nope + 1`}, http.StatusBadRequest, "XPST0008"},
		{"dynamic error", QueryRequest{Query: `fn:error()`}, http.StatusUnprocessableEntity, "FOER0000"},
		// The shape analysis proves `1 * "a"` must raise: the rejection
		// happens at compile time, so the code lands on the 400 row of the
		// taxonomy even though XPTY0004 is otherwise a runtime code...
		{"static type error", QueryRequest{Query: `1 * "a"`}, http.StatusBadRequest, "XPTY0004"},
		// ...while an XPTY0004 outside the analysis' reach (node identity
		// comparison on atomics) still surfaces at runtime as 422: the
		// query compiled, ran, and failed.
		{"runtime type error", QueryRequest{Query: `1 is 2`},
			http.StatusUnprocessableEntity, "XPTY0004"},
		{"steps budget", QueryRequest{Query: `count(for $i in 1 to 1000000 return ())`, MaxSteps: 1000},
			http.StatusUnprocessableEntity, "LOPS0002"},
		{"body over MaxBodyBytes", QueryRequest{Query: `1` + strings.Repeat(" ", 2<<20)},
			http.StatusRequestEntityTooLarge, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, tc.req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			body := decodeError(t, rec)
			if body.Error.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", body.Error.Code, tc.wantCode)
			}
		})
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d", rec.Code)
	}
	s.BeginDrain()
	// Liveness stays green through a drain; readiness goes red with
	// structured retry advice.
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz during drain = %d", rec.Code)
	}
	rec := get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d", rec.Code)
	}
	if body := decodeError(t, rec); body.Error.Code != CodeDraining {
		t.Fatalf("readyz drain code = %q", body.Error.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("readyz drain rejection without Retry-After")
	}
}

func TestMetricsAndStatsEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	post(t, h, QueryRequest{Query: `count(/collection//book)`, Collection: "library", Tenant: "acme"})
	post(t, h, QueryRequest{Query: `count(/collection//book)`, Collection: "library", Tenant: "acme"})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var metrics struct {
		Engine map[string]any `json:"engine"`
		Server map[string]any `json:"server"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &metrics); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if metrics.Server["server_admitted"].(float64) < 2 {
		t.Fatalf("server_admitted = %v", metrics.Server["server_admitted"])
	}
	// Every server key carries the family prefix.
	for k := range metrics.Server {
		if !strings.HasPrefix(k, "server_") {
			t.Fatalf("metric %q missing server_ prefix", k)
		}
	}
	if _, ok := metrics.Engine["Evals"]; !ok {
		t.Fatal("/metrics engine snapshot missing Evals")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats struct {
		Eval struct {
			OK    int64 `json:"ok"`
			Steps int64 `json:"total_steps"`
		} `json:"eval"`
		PlanCache map[string]any              `json:"plan_cache"`
		Tenants   map[string]TenantCacheStats `json:"tenants"`
		Store     *struct {
			Docs int `json:"docs"`
		} `json:"store"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if stats.Eval.OK < 2 || stats.Eval.Steps == 0 {
		t.Fatalf("stats.eval = %+v", stats.Eval)
	}
	acme, ok := stats.Tenants["acme"]
	if !ok {
		t.Fatalf("tenant cache stats missing acme: %v", stats.Tenants)
	}
	if acme.Hits != 1 || acme.Misses != 1 {
		t.Fatalf("acme cache stats = %+v, want 1 hit 1 miss", acme)
	}
	if stats.Store == nil || stats.Store.Docs != 3 {
		t.Fatalf("stats.store = %+v", stats.Store)
	}
}

func TestCollectionsAndReload(t *testing.T) {
	dir := writeTestCorpus(t)
	s, err := New(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/collections", nil))
	var cols struct {
		Version     int64 `json:"version"`
		Collections []struct {
			Name string `json:"name"`
			Docs int    `json:"docs"`
		} `json:"collections"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cols); err != nil {
		t.Fatal(err)
	}
	if len(cols.Collections) != 2 || cols.Version != 1 {
		t.Fatalf("collections = %+v", cols)
	}

	// Add a document and reload.
	if err := os.WriteFile(filepath.Join(dir, "library", "new.xml"), []byte(`<lib/>`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", rec.Code, rec.Body.String())
	}
	if v := s.Store().Snapshot().Version; v != 2 {
		t.Fatalf("version after reload = %d", v)
	}

	// Corrupt the corpus: reload fails structured, old snapshot serves.
	if err := os.WriteFile(filepath.Join(dir, "library", "new.xml"), []byte(`<broken`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("bad reload = %d", rec.Code)
	}
	if body := decodeError(t, rec); body.Error.Code != CodeReloadFailed || !body.Error.Retryable {
		t.Fatalf("bad reload body = %+v", body)
	}
	if rec := post(t, h, QueryRequest{Query: `count(/collection/doc)`, Collection: "library"}); rec.Code != http.StatusOK {
		t.Fatalf("query after failed reload = %d", rec.Code)
	}
	if s.Metrics().ReloadErrors.Load() != 1 {
		t.Fatal("reload error not counted")
	}
}

func TestDrainRejectsNewAndFinishesInFlight(t *testing.T) {
	s := newTestServer(t, Config{
		MaxConcurrent: 2,
		DrainGrace:    5 * time.Second,
		DefaultLimits: limitsWithSteps(200_000_000),
		MaxLimits:     limitsWithSteps(200_000_000),
	})
	h := s.Handler()

	// Park a slow query in flight.
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var slowRec *httptest.ResponseRecorder
	go func() {
		defer wg.Done()
		close(started)
		slowRec = post(t, h, QueryRequest{Query: slowQuery(400_000)})
	}()
	<-started
	waitForInFlight(t, s, 1)

	s.BeginDrain()
	rec := post(t, h, QueryRequest{Query: `1`})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain = %d", rec.Code)
	}
	if body := decodeError(t, rec); body.Error.Code != CodeDraining {
		t.Fatalf("drain rejection code = %q", body.Error.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("drain rejection without Retry-After")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	// The in-flight query finished inside the grace period.
	if slowRec.Code != http.StatusOK {
		t.Fatalf("in-flight query during clean drain = %d: %s", slowRec.Code, slowRec.Body.String())
	}
	if s.Metrics().Drained.Load() == 0 {
		t.Fatal("drained counter not incremented")
	}
	if s.Metrics().DrainCanceled.Load() != 0 {
		t.Fatal("clean drain canceled work")
	}
}

func TestDrainGraceCancelsStragglers(t *testing.T) {
	s := newTestServer(t, Config{
		MaxConcurrent: 2,
		DrainGrace:    50 * time.Millisecond,
		DefaultLimits: limitsWithSteps(4_000_000_000),
		MaxLimits:     limitsWithSteps(4_000_000_000),
	})
	h := s.Handler()

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var slowRec *httptest.ResponseRecorder
	go func() {
		defer wg.Done()
		close(started)
		// Effectively endless under the raised budgets: only the drain
		// cancellation can stop it.
		slowRec = post(t, h, QueryRequest{Query: endlessQuery, TimeoutMs: 120_000})
	}()
	<-started
	waitForInFlight(t, s, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v, grace was 50ms", elapsed)
	}
	wg.Wait()
	// The straggler was cancelled with LOPS0001 semantics.
	if slowRec.Code != http.StatusRequestTimeout {
		t.Fatalf("cancelled straggler status = %d: %s", slowRec.Code, slowRec.Body.String())
	}
	if body := decodeError(t, slowRec); body.Error.Code != "LOPS0001" {
		t.Fatalf("cancelled straggler code = %q", body.Error.Code)
	}
	if s.Metrics().DrainCanceled.Load() == 0 {
		t.Fatal("drain-canceled counter not incremented")
	}
}

func TestHandlerPanicIsContained(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.contain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("synthetic handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if body := decodeError(t, rec); body.Error.Code != CodeHandlerPanic {
		t.Fatalf("code = %q", body.Error.Code)
	}
}

// ---- helpers shared with limits/chaos tests ----

// slowQuery returns a query that iterates n times without materializing
// anything: pure evaluation-step burn, cancellable at every poll. n must
// stay under the engine's 50M range cap.
func slowQuery(n int) string {
	return fmt.Sprintf(`count(for $i in 1 to %d return ())`, n)
}

// endlessQuery burns 1.6e9 iterations via nested loops (each range under
// the 50M cap): far beyond any test's patience, so only a budget trip or a
// cancellation ends it.
const endlessQuery = `count(for $i in 1 to 40000, $j in 1 to 40000 return ())`

func limitsWithSteps(steps int64) interp.Limits {
	return interp.Limits{
		MaxSteps:       steps,
		Timeout:        60 * time.Second,
		MaxNodes:       1_000_000,
		MaxOutputBytes: 8 << 20,
	}
}

func waitForInFlight(t testing.TB, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics().InFlight.Load() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight never reached %d", want)
}
