package server

// tenant_test.go pins what the daemon promises about plan caching now that
// the cache itself is the engine's xq.Cache: isolation between tenants,
// idle-tenant eviction, compile-once per (tenant, kind, text) under
// concurrent first requests, and one consistent story across every surface
// that reports cache traffic.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lopsided/xq"
)

type statsView struct {
	PlanCache xq.CacheStats               `json:"plan_cache"`
	Tenants   map[string]TenantCacheStats `json:"tenants"`
}

func getStats(t *testing.T, h http.Handler) statsView {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var v statsView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	return v
}

func planCacheOf(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.PlanCache
}

// TestNoisyTenantCannotEvictAnother: tenant A churns through twice its
// cache's capacity; tenant B's single plan is untouched.
func TestNoisyTenantCannotEvictAnother(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if pc := planCacheOf(t, post(t, h, QueryRequest{Query: `1 + 1`, Tenant: "b"})); pc != "miss" {
		t.Fatalf("b's first request: plan_cache = %q", pc)
	}
	for i := 0; i < 2*plansPerTenant; i++ {
		planCacheOf(t, post(t, h, QueryRequest{Query: fmt.Sprintf(`%d + 1`, i), Tenant: "a"}))
	}
	if pc := planCacheOf(t, post(t, h, QueryRequest{Query: `1 + 1`, Tenant: "b"})); pc != "hit" {
		t.Fatalf("b's plan after a's churn: plan_cache = %q, want hit", pc)
	}
	a := getStats(t, h).Tenants["a"]
	if a.Evictions < plansPerTenant || a.Entries > plansPerTenant {
		t.Fatalf("a's scoreboard = %+v, want >= %d evictions and <= %d entries", a, plansPerTenant, plansPerTenant)
	}
}

// TestIdlestTenantEvicted: one tenant past the cap drops the least recently
// used tenant's cache and no other.
func TestIdlestTenantEvicted(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	name := func(i int) string { return fmt.Sprintf("t%02d", i) }
	for i := 0; i < maxTenants; i++ {
		planCacheOf(t, post(t, h, QueryRequest{Query: `1`, Tenant: name(i)}))
	}
	// Touch t00 so that t01 is now the idlest.
	if pc := planCacheOf(t, post(t, h, QueryRequest{Query: `1`, Tenant: name(0)})); pc != "hit" {
		t.Fatalf("t00 revisit: plan_cache = %q", pc)
	}
	planCacheOf(t, post(t, h, QueryRequest{Query: `1`, Tenant: "one-too-many"}))

	live := getStats(t, h).Tenants
	if len(live) != maxTenants {
		t.Fatalf("%d live tenants, want %d", len(live), maxTenants)
	}
	if _, ok := live[name(1)]; ok {
		t.Fatal("t01 was the idlest tenant and should have been evicted")
	}
	for i := 0; i < maxTenants; i++ {
		if _, ok := live[name(i)]; !ok && i != 1 {
			t.Fatalf("%s evicted, but only t01 was idlest", name(i))
		}
	}
	// Every survivor still has its plan.
	if pc := planCacheOf(t, post(t, h, QueryRequest{Query: `1`, Tenant: name(2)})); pc != "hit" {
		t.Fatalf("t02 after the eviction: plan_cache = %q, want hit", pc)
	}
}

// TestConcurrentFirstRequestsCompileOncePerKind: "delete //journal" is both
// a valid query (a child::delete step, then //journal) and a valid update
// program. Sixteen goroutines first-request it both ways in one tenant; the
// tenant ends up with exactly two plans from exactly two compiles.
func TestConcurrentFirstRequestsCompileOncePerKind(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 16})
	h := s.Handler()
	const src = `delete //journal`
	compiles := xq.MetricsSnapshot().Compiles
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var rec *httptest.ResponseRecorder
			if g%2 == 0 {
				rec = post(t, h, QueryRequest{Query: src, Collection: "library"})
			} else {
				rec = postTransform(t, h, TransformRequest{Update: src, Collection: "library"})
			}
			if rec.Code != http.StatusOK {
				t.Errorf("goroutine %d: status %d: %s", g, rec.Code, rec.Body.String())
			}
		}(g)
	}
	wg.Wait()
	if got := xq.MetricsSnapshot().Compiles - compiles; got != 2 {
		t.Fatalf("%d compiles, want 2 (one per kind)", got)
	}
	if d := getStats(t, h).Tenants["default"]; d.Misses != 2 || d.Hits != 14 || d.Entries != 2 {
		t.Fatalf("default tenant scoreboard = %+v, want 2 misses, 14 hits, 2 entries", d)
	}
}

// TestPlanCacheSurfacesAgree: for a miss-then-hit pair, the response (whose
// plan_cache field is EvalStats.PlanCacheHit spelled out), the tenant
// scoreboard, the /stats total and the engine's /metrics counters tell the
// same story. Before PR 14 the last two read zero forever in xqd.
func TestPlanCacheSurfacesAgree(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	engine := func() (hits, misses int64) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var m struct {
			Engine struct{ PlanCacheHits, PlanCacheMisses int64 } `json:"engine"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("/metrics not JSON: %v", err)
		}
		return m.Engine.PlanCacheHits, m.Engine.PlanCacheMisses
	}
	hits0, misses0 := engine() // process-wide counters: compare deltas

	req := QueryRequest{Query: `count(/collection//book)`, Collection: "library", Tenant: "acme"}
	if pc := planCacheOf(t, post(t, h, req)); pc != "miss" {
		t.Fatalf("first request: plan_cache = %q", pc)
	}
	if pc := planCacheOf(t, post(t, h, req)); pc != "hit" {
		t.Fatalf("second request: plan_cache = %q", pc)
	}

	st := getStats(t, h)
	if acme := st.Tenants["acme"]; acme != (TenantCacheStats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("/stats.tenants[acme] = %+v", acme)
	}
	want := xq.CacheStats{Hits: 1, Misses: 1, Entries: 1, SourceBytes: int64(len(req.Query))}
	if st.PlanCache != want {
		t.Fatalf("/stats.plan_cache = %+v, want %+v", st.PlanCache, want)
	}
	hits1, misses1 := engine()
	if hits1-hits0 != 1 || misses1-misses0 != 1 {
		t.Fatalf("/metrics engine plan-cache deltas = %d hits, %d misses; want 1 and 1", hits1-hits0, misses1-misses0)
	}
}
