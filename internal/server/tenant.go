package server

// tenant.go keeps what is the daemon's own about plan caching: a bounded
// tenant → *xq.Cache map and the /stats scoreboard over it. The cache
// itself (compile-once under concurrent first requests, cached compile
// errors, exact-bound FIFO eviction, query and update plans keyed apart) is
// the engine's xq.Cache; one instance per tenant gives isolation in both
// directions by construction — a tenant's unbounded query stream can only
// evict its own plans — and per-tenant hit rates are a capacity-planning
// signal worth exporting. Past the tenant cap the idlest tenant's whole
// cache is dropped.

import (
	"sync"
	"time"

	"lopsided/xq"
)

// Bounds of the tenant map and of each tenant's plan cache.
const (
	maxTenants     = 64
	plansPerTenant = 128
)

type tenant struct {
	plans    *xq.Cache
	lastUsed time.Time // under tenants.mu, for idle-tenant eviction
}

// tenants is the tenant → cache map, itself bounded.
type tenants struct {
	mu sync.Mutex
	m  map[string]*tenant
}

// plans returns (creating if needed) the named tenant's cache. Past the
// tenant cap, the least recently used tenant's whole cache is dropped —
// recompiling is always safe, and an idle tenant's plans are the cheapest
// memory to reclaim.
func (ts *tenants) plans(name string) *xq.Cache {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.m[name]
	if !ok {
		if len(ts.m) >= maxTenants {
			var idlest string
			var oldest time.Time
			for n, t := range ts.m {
				if idlest == "" || t.lastUsed.Before(oldest) {
					idlest, oldest = n, t.lastUsed
				}
			}
			delete(ts.m, idlest)
		}
		t = &tenant{plans: xq.NewCache(plansPerTenant)}
		ts.m[name] = t
	}
	t.lastUsed = time.Now()
	return t.plans
}

// TenantCacheStats is one tenant's cache scoreboard, reported by /stats.
type TenantCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// stats snapshots every live tenant's scoreboard and their sum (an evicted
// tenant's traffic leaves the sum with it).
func (ts *tenants) stats() (total xq.CacheStats, per map[string]TenantCacheStats) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	per = make(map[string]TenantCacheStats, len(ts.m))
	for name, t := range ts.m {
		st := t.plans.Stats()
		per[name] = TenantCacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: int(st.Entries)}
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.Entries += st.Entries
		total.SourceBytes += st.SourceBytes
	}
	return total, per
}
