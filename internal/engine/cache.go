package engine

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"strconv"
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
	b := make([]byte, 0, 512)
	p := cfg.Params
	// Model constants.
	b = putI(b, "M", p.M)
	b = putI(b, "K", p.K)
	b = putF(b, "Qk", p.Qk)
	b = putF(b, "W1", p.W1)
	b = putF(b, "W2", p.W2)
	b = putF(b, "W3", p.W3)
	b = putF(b, "Xi", p.Xi)
	b = putF(b, "SigmaQ", p.SigmaQ)
	b = putF(b, "ChRate", p.ChRate)
	b = putF(b, "ChMean", p.ChMean)
	b = putF(b, "ChSigma", p.ChSigma)
	b = putF(b, "HMin", p.HMin)
	b = putF(b, "HMax", p.HMax)
	b = putF(b, "Bandwidth", p.Bandwidth)
	b = putF(b, "TxPower", p.TxPower)
	b = putF(b, "Noise", p.Noise)
	b = putF(b, "PathLoss", p.PathLoss)
	b = putF(b, "MeanDist", p.MeanDist)
	b = putI(b, "Interfer", p.Interfer)
	b = putF(b, "HubRate", p.HubRate)
	b = putF(b, "RateFloor", p.RateFloor)
	b = putF(b, "PHat", p.PHat)
	b = putF(b, "Eta1", p.Eta1)
	b = putF(b, "Eta2", p.Eta2)
	b = putF(b, "SharePrice", p.SharePrice)
	b = putF(b, "W4", p.W4)
	b = putF(b, "W5", p.W5)
	b = putF(b, "Alpha", p.Alpha)
	b = putF(b, "SmoothL", p.SmoothL)
	b = putF(b, "ZipfSkew", p.ZipfSkew)
	b = putF(b, "LMax", p.LMax)
	b = putF(b, "Horizon", p.Horizon)
	b = putF(b, "InitMeanFrac", p.InitMeanFrac)
	b = putF(b, "InitStdFrac", p.InitStdFrac)
	// Solver knobs.
	b = putI(b, "NH", cfg.NH)
	b = putI(b, "NQ", cfg.NQ)
	b = putI(b, "Steps", cfg.Steps)
	b = putI(b, "MaxIters", cfg.MaxIters)
	b = putF(b, "Tol", cfg.Tol)
	b = putF(b, "Damping", cfg.Damping)
	b = putI(b, "Form", int(cfg.FPKForm))
	b = strconv.AppendBool(append(b, "Share="...), cfg.ShareEnabled)
	b = append(b, ";Scheme="...)
	if sch, err := pde.ParseScheme(cfg.Scheme); err == nil {
		b = append(b, sch.String()...)
	} else {
		b = strconv.AppendQuote(b, cfg.Scheme)
	}
	b = append(b, ';')
	// A non-default divergence threshold decides whether a request gets an
	// answer at all, so it keys; zero (the default) adds nothing, keeping
	// default keys, store records and surrogate tables as they were.
	if cfg.BlowupResidual != 0 {
		b = putF(b, "Blowup", cfg.BlowupResidual)
	}
	// The Surrogate routing config decides which tier answers, never what
	// the equilibrium is, so it is not part of the key.
	// Initial density override: quantised content hash (nil means the
	// Section-V default, which the params above already determine).
	if cfg.InitLambda != nil {
		h := fnv.New64a()
		var num [32]byte
		for _, v := range cfg.InitLambda {
			_, _ = h.Write(append(strconv.AppendFloat(num[:0], v, 'g', 9, 64), ';'))
		}
		b = strconv.AppendInt(append(b, "Init="...), int64(len(cfg.InitLambda)), 10)
		b = strconv.AppendUint(append(b, ':'), h.Sum64(), 16)
		b = append(b, ';')
	}
	// Workload.
	b = putF(b, "Requests", w.Requests)
	b = putF(b, "Pop", w.Pop)
	b = putF(b, "Timeliness", w.Timeliness)
	return string(b)
}

// putI appends one integer field.
func putI(b []byte, name string, v int) []byte {
	b = append(append(b, name...), '=')
	return append(strconv.AppendInt(b, int64(v), 10), ';')
}

// putF appends one float field quantised to 9 significant digits. NaN and
// infinities format distinctly, so invalid configurations never alias valid
// ones.
func putF(b []byte, name string, v float64) []byte {
	if v == 0 {
		v = 0 // normalise -0 and +0 onto one encoding
	}
	b = append(append(b, name...), '=')
	return append(strconv.AppendFloat(b, v, 'g', 9, 64), ';')
}

// LRU is a bounded, concurrency-safe map from canonical keys to shared
// values with least-recently-used eviction. It is the one LRU of the module:
// Cache instantiates it over equilibria for the policy layer's parallel
// per-content solves and the simulator's epoch loop, and the serving daemon
// instantiates it over the answers it serves and over its per-configuration
// pools of solver sessions. Values are shared, not copied,
// so callers must treat them as immutable. Lookups and insertions report
// "engine.cache.hit", "engine.cache.miss" and "engine.cache.evictions" to the
// given recorder.
type LRU[T any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions uint64
}

// LRUEntry is one (key, value) pair, as LRU.Export returns it.
type LRUEntry[T any] struct {
	Key   string
	Value *T
}

// Cache is the equilibrium LRU: an epoch whose (params, workload) matches an
// already-solved one reuses the stored equilibrium instead of cold-starting
// Algorithm 2.
type Cache = LRU[Equilibrium]

// CacheExportEntry is one (key, equilibrium) pair exported by Cache.Export.
type CacheExportEntry = LRUEntry[Equilibrium]

// NewLRU returns an LRU bounded to capacity values. Capacity must be
// positive.
func NewLRU[T any](capacity int) (*LRU[T], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("engine: cache capacity must be ≥ 1, got %d", capacity)
	}
	return &LRU[T]{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}, nil
}

// NewCache returns an equilibrium cache bounded to capacity equilibria.
// Capacity must be positive.
func NewCache(capacity int) (*Cache, error) { return NewLRU[Equilibrium](capacity) }

// Get returns the value stored under key, marking it most recently used. rec
// (nil means no-op) receives the hit/miss counter.
func (c *LRU[T]) Get(rec obs.Recorder, key string) (*T, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	var v *T
	if ok {
		c.order.MoveToFront(el)
		v = el.Value.(*LRUEntry[T]).Value
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
	return v, ok
}

// Put stores v under key, evicting the least recently used entry when the
// bound is exceeded. Storing under an existing key refreshes the entry; a nil
// v is not stored.
func (c *LRU[T]) Put(rec obs.Recorder, key string, v *T) {
	if v == nil {
		return
	}
	var evicted uint64
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*LRUEntry[T]).Value = v
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&LRUEntry[T]{Key: key, Value: v})
		for c.order.Len() > c.cap {
			last := c.order.Back()
			c.order.Remove(last)
			delete(c.entries, last.Value.(*LRUEntry[T]).Key)
			c.evictions++
			evicted++
		}
	}
	c.mu.Unlock()
	if evicted > 0 {
		obs.OrNop(rec).Add("engine.cache.evictions", float64(evicted))
	}
}

// Export returns the contents ordered from least- to most-recently used, so
// Restore on a fresh LRU of the same capacity reproduces both the entries and
// the eviction order. The checkpoint layer persists an equilibrium cache's
// export across process restarts.
func (c *LRU[T]) Export() []LRUEntry[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LRUEntry[T], 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*LRUEntry[T]))
	}
	return out
}

// Restore inserts the exported entries in order (least recently used first),
// rebuilding the LRU state captured by Export. Restoring does not touch the
// hit/miss counters and records no metrics.
func (c *LRU[T]) Restore(entries []LRUEntry[T]) {
	for _, e := range entries {
		c.Put(nil, e.Key, e.Value)
	}
}

// Len returns the number of stored values.
func (c *LRU[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Capacity returns the configured bound.
func (c *LRU[T]) Capacity() int { return c.cap }

// Stats returns the lifetime hit/miss/eviction counters.
func (c *LRU[T]) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
