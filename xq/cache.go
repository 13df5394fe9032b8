package xq

// cache.go is the module's one plan cache. Most embedders (the document
// generator, the AWB calculus, the CLIs) compile a small fixed set of
// programs and then evaluate them against many inputs; xqd looks a plan up
// on every request. Caching the compiled plan makes repeat compilation a
// map hit.
//
// The key is the source text, query-or-update, and the planOptions that
// affect compilation. Everything else in the options is runtime-only
// configuration (tracers, resolvers, limits, policies) and is applied per
// returned *Query, so callers with different runtime options still share
// one compiled plan.
//
// A Cache is one mutex, one map, and a FIFO ring: the design xqd's
// per-request lookups have exercised since PR 6. The process-default
// instance behind CompileCached is looked up a handful of times per
// generator or CLI lifetime, so nothing in the repository contends on it;
// the daemon gives every tenant its own instance, which is what keeps one
// tenant's churn from evicting another's plans.

import (
	"sync"

	"lopsided/internal/obs"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/optimizer"
)

type planKey struct {
	src    string
	update bool // compiled as an update program; one text can be both
	opts   planOptions
}

// planEntry is one cache slot. The sync.Once makes concurrent first
// requests for the same key compile exactly once; the losers block until
// the winner finishes and then share its result.
type planEntry struct {
	once  sync.Once
	prog  *interp.Program
	stats optimizer.Stats
	err   error
}

// Cache is a bounded compiled-plan cache, safe for concurrent use. It never
// holds more than its bound: inserting into a full cache evicts the oldest
// insertion first (recompiling is always safe, so a host that feeds
// unbounded user-supplied source through it degrades to extra compiles
// instead of unbounded memory growth). Compilation errors are cached too:
// recompiling a bad program is as cheap as recompiling a good one.
type Cache struct {
	mu sync.Mutex
	m  map[planKey]*planEntry
	// ring holds the keys of m in insertion order; once it has grown to max
	// entries, oldest indexes the next victim.
	ring   []planKey
	oldest int
	max    int

	hits, misses, evictions int64 // under mu
}

// NewCache returns an empty cache holding at most maxPlans plans; maxPlans
// must be positive.
func NewCache(maxPlans int) *Cache {
	return &Cache{m: make(map[planKey]*planEntry), max: maxPlans}
}

// Compile is the package-level Compile backed by this cache.
// EvalStats.PlanCacheHit, Stats and the process metrics record the
// hit/miss/eviction traffic.
func (c *Cache) Compile(src string, opts ...Option) (*Query, error) {
	return c.compile(src, opts, false)
}

// CompileUpdate is the package-level CompileUpdate backed by this cache;
// update plans and query plans never collide even for identical source text.
func (c *Cache) CompileUpdate(src string, opts ...Option) (*Query, error) {
	return c.compile(src, opts, true)
}

func (c *Cache) compile(src string, opts []Option, update bool) (*Query, error) {
	q := newQuery(opts)
	key := planKey{src: src, update: update, opts: q.cfg.plan}
	reg := obs.Default()

	c.mu.Lock()
	e, hit := c.m[key]
	if hit {
		c.hits++
		reg.PlanCacheHits.Add(1)
	} else {
		c.misses++
		reg.PlanCacheMisses.Add(1)
		if len(c.ring) < c.max {
			c.ring = append(c.ring, key)
		} else {
			delete(c.m, c.ring[c.oldest])
			c.ring[c.oldest] = key
			c.oldest = (c.oldest + 1) % c.max
			c.evictions++
			reg.PlanCacheEvictions.Add(1)
		}
		e = &planEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()

	// Compilation runs outside the lock; concurrent first requests
	// serialize on the entry's Once, not on the cache.
	e.once.Do(func() { e.prog, e.stats, e.err = compile(src, &q.cfg, update) })
	if e.err != nil {
		return nil, e.err
	}
	q.prog, q.Stats, q.cacheHit = e.prog, e.stats, hit
	return q, nil
}

// CacheStats describes a plan cache: hit/miss/eviction traffic plus current
// occupancy. All fields are monotonic except Entries and SourceBytes, which
// are point-in-time.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Entries is the current number of cached plans, cached compile
	// failures included.
	Entries int64
	// SourceBytes is the total source-text length of the cached keys — a
	// proxy for the cache's memory footprint.
	SourceBytes int64
}

// Stats reports the cache's current statistics. Safe to call concurrently
// with compilation.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: int64(len(c.ring))}
	for i := range c.ring {
		st.SourceBytes += int64(len(c.ring[i].src))
	}
	return st
}

// processCache is the process-default instance behind CompileCached,
// CompileUpdateCached and PlanCache.
var processCache = NewCache(1024)

// CompileCached is Compile backed by the process-wide plan cache (see
// Cache.Compile).
func CompileCached(src string, opts ...Option) (*Query, error) {
	return processCache.Compile(src, opts...)
}

// CompileUpdateCached is CompileUpdate backed by the same process-wide plan
// cache as CompileCached.
func CompileUpdateCached(src string, opts ...Option) (*Query, error) {
	return processCache.CompileUpdate(src, opts...)
}

// PlanCache reports the process-wide plan cache's statistics.
func PlanCache() CacheStats { return processCache.Stats() }
