package engine

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/pde"
)

// CacheKey builds the canonical lookup key of one equilibrium computation:
// every model constant, solver knob and workload descriptor that influences
// the solution, with floats quantised to 9 significant digits so that
// physically identical configurations arriving with sub-round-off jitter
// collapse onto one key while any real perturbation separates them. The
// warm-start seed is deliberately excluded: the mean-field equilibrium is
// unique (Theorem 2), so a cached solution for the same (params, workload,
// grid, scheme) is the answer regardless of where the iteration started.
func CacheKey(cfg Config, w Workload) string {
	var b strings.Builder
	b.Grow(512)
	p := cfg.Params
	// Model constants.
	fmt.Fprintf(&b, "M=%d;K=%d;", p.M, p.K)
	putF(&b, "Qk", p.Qk)
	putF(&b, "W1", p.W1)
	putF(&b, "W2", p.W2)
	putF(&b, "W3", p.W3)
	putF(&b, "Xi", p.Xi)
	putF(&b, "SigmaQ", p.SigmaQ)
	putF(&b, "ChRate", p.ChRate)
	putF(&b, "ChMean", p.ChMean)
	putF(&b, "ChSigma", p.ChSigma)
	putF(&b, "HMin", p.HMin)
	putF(&b, "HMax", p.HMax)
	putF(&b, "Bandwidth", p.Bandwidth)
	putF(&b, "TxPower", p.TxPower)
	putF(&b, "Noise", p.Noise)
	putF(&b, "PathLoss", p.PathLoss)
	putF(&b, "MeanDist", p.MeanDist)
	fmt.Fprintf(&b, "Interfer=%d;", p.Interfer)
	putF(&b, "HubRate", p.HubRate)
	putF(&b, "RateFloor", p.RateFloor)
	putF(&b, "PHat", p.PHat)
	putF(&b, "Eta1", p.Eta1)
	putF(&b, "Eta2", p.Eta2)
	putF(&b, "SharePrice", p.SharePrice)
	putF(&b, "W4", p.W4)
	putF(&b, "W5", p.W5)
	putF(&b, "Alpha", p.Alpha)
	putF(&b, "SmoothL", p.SmoothL)
	putF(&b, "ZipfSkew", p.ZipfSkew)
	putF(&b, "LMax", p.LMax)
	putF(&b, "Horizon", p.Horizon)
	putF(&b, "InitMeanFrac", p.InitMeanFrac)
	putF(&b, "InitStdFrac", p.InitStdFrac)
	// Solver knobs.
	fmt.Fprintf(&b, "NH=%d;NQ=%d;Steps=%d;MaxIters=%d;", cfg.NH, cfg.NQ, cfg.Steps, cfg.MaxIters)
	putF(&b, "Tol", cfg.Tol)
	putF(&b, "Damping", cfg.Damping)
	fmt.Fprintf(&b, "Form=%d;Share=%t;", int(cfg.FPKForm), cfg.ShareEnabled)
	if sch, err := pde.ParseScheme(cfg.Scheme); err == nil {
		fmt.Fprintf(&b, "Scheme=%s;", sch)
	} else {
		fmt.Fprintf(&b, "Scheme=%q;", cfg.Scheme)
	}
	// A non-default divergence threshold decides whether a request gets an
	// answer at all, so it keys; zero (the default) adds nothing, keeping
	// default keys, store records and surrogate tables as they were.
	if cfg.BlowupResidual != 0 {
		putF(&b, "Blowup", cfg.BlowupResidual)
	}
	// The Surrogate routing config decides which tier answers, never what
	// the equilibrium is, so it is not part of the key.
	// Initial density override: quantised content hash (nil means the
	// Section-V default, which the params above already determine).
	if cfg.InitLambda != nil {
		h := fnv.New64a()
		for _, v := range cfg.InitLambda {
			fmt.Fprintf(h, "%.9g;", v)
		}
		fmt.Fprintf(&b, "Init=%d:%x;", len(cfg.InitLambda), h.Sum64())
	}
	// Workload.
	putF(&b, "Requests", w.Requests)
	putF(&b, "Pop", w.Pop)
	putF(&b, "Timeliness", w.Timeliness)
	return b.String()
}

// putF appends one quantised float field. NaN and infinities format
// distinctly, so invalid configurations never alias valid ones.
func putF(b *strings.Builder, name string, v float64) {
	if v == 0 {
		v = 0 // normalise -0 and +0 onto one encoding
	}
	if math.IsNaN(v) {
		fmt.Fprintf(b, "%s=NaN;", name)
		return
	}
	fmt.Fprintf(b, "%s=%.9g;", name, v)
}

// Cache is a bounded, concurrency-safe equilibrium store with LRU eviction,
// shared by the policy layer's parallel per-content solves and the
// simulator's epoch loop: an epoch whose (params, workload) matches an
// already-solved one reuses the stored equilibrium instead of cold-starting
// Algorithm 2. Lookups and insertions report "engine.cache.hit",
// "engine.cache.miss" and "engine.cache.evictions" to the given recorder.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key string
	eq  *Equilibrium
}

// NewCache returns a cache bounded to capacity equilibria. Capacity must be
// positive.
func NewCache(capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("engine: cache capacity must be ≥ 1, got %d", capacity)
	}
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}, nil
}

// Get returns the equilibrium stored under key, marking it most recently
// used. rec (nil means no-op) receives the hit/miss counter.
func (c *Cache) Get(rec obs.Recorder, key string) (*Equilibrium, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	var eq *Equilibrium
	if ok {
		c.order.MoveToFront(el)
		eq = el.Value.(*cacheEntry).eq
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	r := obs.OrNop(rec)
	if ok {
		r.Add("engine.cache.hit", 1)
	} else {
		r.Add("engine.cache.miss", 1)
	}
	return eq, ok
}

// Put stores eq under key, evicting the least recently used entry when the
// bound is exceeded. Storing under an existing key refreshes the entry.
func (c *Cache) Put(rec obs.Recorder, key string, eq *Equilibrium) {
	if eq == nil {
		return
	}
	var evicted uint64
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).eq = eq
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, eq: eq})
		for c.order.Len() > c.cap {
			last := c.order.Back()
			c.order.Remove(last)
			delete(c.entries, last.Value.(*cacheEntry).key)
			c.evictions++
			evicted++
		}
	}
	c.mu.Unlock()
	if evicted > 0 {
		obs.OrNop(rec).Add("engine.cache.evictions", float64(evicted))
	}
}

// CacheExportEntry is one (key, equilibrium) pair exported by Cache.Export.
type CacheExportEntry struct {
	Key string
	Eq  *Equilibrium
}

// Export returns the cache contents ordered from least- to most-recently
// used, so Restore on a fresh cache of the same capacity reproduces both the
// entries and the LRU eviction order. The checkpoint layer persists these
// across process restarts.
func (c *Cache) Export() []CacheExportEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheExportEntry, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		out = append(out, CacheExportEntry{Key: e.key, Eq: e.eq})
	}
	return out
}

// Restore inserts the exported entries in order (least recently used first),
// rebuilding the LRU state captured by Export. Restoring does not touch the
// hit/miss counters and records no metrics.
func (c *Cache) Restore(entries []CacheExportEntry) {
	for _, e := range entries {
		c.Put(nil, e.Key, e.Eq)
	}
}

// Len returns the number of stored equilibria.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Capacity returns the configured bound.
func (c *Cache) Capacity() int { return c.cap }

// Stats returns the lifetime hit/miss/eviction counters.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
