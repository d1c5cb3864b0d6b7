package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pde"
)

// TestCacheKeyCanonical checks the canonicalisation contract: identical
// inputs and sub-round-off jitter map onto one key; every meaningful
// perturbation separates keys.
func TestCacheKeyCanonical(t *testing.T) {
	cfg, w := smallConfig()
	base := CacheKey(cfg, w)
	if base != CacheKey(cfg, w) {
		t.Fatalf("identical inputs produced different keys")
	}

	// Sub-quantum jitter (below 9 significant digits) collapses.
	jitter := cfg
	jitter.Tol = cfg.Tol * (1 + 1e-13)
	if CacheKey(jitter, w) != base {
		t.Errorf("1e-13 relative jitter on Tol changed the key")
	}
	wj := w
	wj.Requests = w.Requests * (1 + 1e-13)
	if CacheKey(cfg, wj) != base {
		t.Errorf("1e-13 relative jitter on Requests changed the key")
	}

	// Real perturbations separate.
	cases := []struct {
		name string
		key  string
	}{
		{"Requests", CacheKey(cfg, Workload{Requests: w.Requests * 1.01, Pop: w.Pop, Timeliness: w.Timeliness})},
		{"Pop", CacheKey(cfg, Workload{Requests: w.Requests, Pop: w.Pop + 0.01, Timeliness: w.Timeliness})},
		{"Timeliness", CacheKey(cfg, Workload{Requests: w.Requests, Pop: w.Pop, Timeliness: w.Timeliness + 0.1})},
	}
	seen := map[string]string{base: "base"}
	for _, c := range cases {
		if prev, dup := seen[c.key]; dup {
			t.Errorf("perturbing %s collided with %s", c.name, prev)
		}
		seen[c.key] = c.name
	}

	grid := cfg
	grid.NQ += 2
	if CacheKey(grid, w) == base {
		t.Errorf("changing the grid resolution kept the key")
	}
	tol := cfg
	tol.Tol *= 10
	if CacheKey(tol, w) == base {
		t.Errorf("changing Tol kept the key")
	}
	scheme := cfg
	scheme.Scheme = "explicit"
	if CacheKey(scheme, w) == base {
		t.Errorf("changing the scheme kept the key")
	}
	share := cfg
	share.ShareEnabled = !cfg.ShareEnabled
	if CacheKey(share, w) == base {
		t.Errorf("toggling ShareEnabled kept the key")
	}
	params := cfg
	params.Params.Eta1 *= 2
	if CacheKey(params, w) == base {
		t.Errorf("changing a model parameter kept the key")
	}

	// The scheme name is canonical: "" and "implicit" resolve to the same
	// integrator and must share a key.
	named := cfg
	named.Scheme = "implicit"
	if CacheKey(named, w) != base {
		t.Errorf("explicit %q scheme name diverged from the default key", named.Scheme)
	}

	// Warm start must NOT enter the key: the equilibrium is unique
	// (Theorem 2), so the cached solution answers regardless of seed.
	warm := cfg
	warm.WarmStart = &Equilibrium{}
	if CacheKey(warm, w) != base {
		t.Errorf("warm-start seed leaked into the cache key")
	}
}

// fmtCacheKey is CacheKey as it was written with fmt, kept as the reference
// its strconv rendering must reproduce: store records and surrogate BaseKeys
// are named by these strings.
func fmtCacheKey(cfg Config, w Workload) string {
	var b strings.Builder
	put := func(name string, v float64) {
		if v == 0 {
			v = 0
		}
		if math.IsNaN(v) {
			fmt.Fprintf(&b, "%s=NaN;", name)
			return
		}
		fmt.Fprintf(&b, "%s=%.9g;", name, v)
	}
	p := cfg.Params
	fmt.Fprintf(&b, "M=%d;K=%d;", p.M, p.K)
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Qk", p.Qk}, {"W1", p.W1}, {"W2", p.W2}, {"W3", p.W3}, {"Xi", p.Xi}, {"SigmaQ", p.SigmaQ},
		{"ChRate", p.ChRate}, {"ChMean", p.ChMean}, {"ChSigma", p.ChSigma}, {"HMin", p.HMin}, {"HMax", p.HMax},
		{"Bandwidth", p.Bandwidth}, {"TxPower", p.TxPower}, {"Noise", p.Noise}, {"PathLoss", p.PathLoss},
		{"MeanDist", p.MeanDist},
	} {
		put(f.name, f.v)
	}
	fmt.Fprintf(&b, "Interfer=%d;", p.Interfer)
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HubRate", p.HubRate}, {"RateFloor", p.RateFloor}, {"PHat", p.PHat}, {"Eta1", p.Eta1}, {"Eta2", p.Eta2},
		{"SharePrice", p.SharePrice}, {"W4", p.W4}, {"W5", p.W5}, {"Alpha", p.Alpha}, {"SmoothL", p.SmoothL},
		{"ZipfSkew", p.ZipfSkew}, {"LMax", p.LMax}, {"Horizon", p.Horizon}, {"InitMeanFrac", p.InitMeanFrac},
		{"InitStdFrac", p.InitStdFrac},
	} {
		put(f.name, f.v)
	}
	fmt.Fprintf(&b, "NH=%d;NQ=%d;Steps=%d;MaxIters=%d;", cfg.NH, cfg.NQ, cfg.Steps, cfg.MaxIters)
	put("Tol", cfg.Tol)
	put("Damping", cfg.Damping)
	fmt.Fprintf(&b, "Form=%d;Share=%t;", int(cfg.FPKForm), cfg.ShareEnabled)
	if sch, err := pde.ParseScheme(cfg.Scheme); err == nil {
		fmt.Fprintf(&b, "Scheme=%s;", sch)
	} else {
		fmt.Fprintf(&b, "Scheme=%q;", cfg.Scheme)
	}
	if cfg.BlowupResidual != 0 {
		put("Blowup", cfg.BlowupResidual)
	}
	if cfg.InitLambda != nil {
		h := fnv.New64a()
		for _, v := range cfg.InitLambda {
			fmt.Fprintf(h, "%.9g;", v)
		}
		fmt.Fprintf(&b, "Init=%d:%x;", len(cfg.InitLambda), h.Sum64())
	}
	put("Requests", w.Requests)
	put("Pop", w.Pop)
	put("Timeliness", w.Timeliness)
	return b.String()
}

// TestCacheKeyMatchesFmtRendering pins CacheKey's strings to the fmt
// rendering over the values where the two formatters could part: signed
// zeros, NaN, infinities, subnormals, 9-digit rounding boundaries, and every
// optional branch (Blowup, Scheme, InitLambda).
func TestCacheKeyMatchesFmtRendering(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 2.2250738585072009e-308,
		math.MaxFloat64, 1, -1, 0.1, 1e-7, 1e21, 123456789, 1234567885, 1234567895, 123456789.5, 999999999.5,
		9999999995, 0.99999999949, 0.9999999995, 1.0000000005, 2.5e-9, -0.0012345678949999, 3.14159265358979}
	type keyCase struct {
		cfg Config
		w   Workload
	}
	cfg, w := smallConfig()
	cases := map[string]keyCase{"default": {cfg, w}}
	for i, v := range floats {
		c, wl := cfg, w
		c.Params.Eta1, c.Tol, c.BlowupResidual = v, v, v
		wl.Requests, wl.Pop, wl.Timeliness = v, -v, v/3
		cases[fmt.Sprintf("float %d (%g)", i, v)] = keyCase{c, wl}
	}
	for _, scheme := range []string{"", "implicit", "explicit", "Implicit", `we"ird\x00é`} {
		c := cfg
		c.Scheme = scheme
		cases["scheme "+scheme] = keyCase{c, w}
	}
	for i, init := range [][]float64{{}, {1, 2, 3}, floats} {
		c := cfg
		c.InitLambda = init
		cases[fmt.Sprintf("init %d", i)] = keyCase{c, w}
	}
	ints := cfg
	ints.Params.M, ints.Params.K, ints.Params.Interfer, ints.MaxIters = -1, math.MaxInt, math.MinInt, 0
	ints.FPKForm, ints.ShareEnabled = 7, !cfg.ShareEnabled
	cases["ints"] = keyCase{ints, w}
	for name, c := range cases {
		if got, want := CacheKey(c.cfg, c.w), fmtCacheKey(c.cfg, c.w); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestCacheKeyCoversEveryField perturbs every field of Config, of its
// mec.Params and of Workload in turn: each must change CacheKey, so a field
// added later cannot be forgotten by the key. The exclusions are listed with
// their reasons, and perturbing them must leave the key alone.
func TestCacheKeyCoversEveryField(t *testing.T) {
	excluded := map[string]func(*Config){
		// Routing: decides which tier answers, never what the equilibrium is.
		"Surrogate": func(c *Config) { c.Surrogate = SurrogateConfig{Path: "table.mfgt", MaxErrorBound: 0.1} },
		// A process-local telemetry handle.
		"Obs": func(c *Config) { c.Obs = obs.NewRegistry(nil) },
		// The equilibrium is unique (Theorem 2): the seed never changes it.
		"WarmStart": func(c *Config) { c.WarmStart = &Equilibrium{} },
	}
	cfg, w := smallConfig()
	base := CacheKey(cfg, w)
	key := func() string { return CacheKey(cfg, w) }

	perturb := func(name string, f reflect.Value) {
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float()*1.5 + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString("explicit") // Scheme, the one keyed string: the other integrator
		case reflect.Slice:
			f.Set(reflect.ValueOf([]float64{1, 2, 3}))
		default:
			t.Fatalf("%s: no perturbation for kind %s; extend this test", name, f.Kind())
		}
	}
	covered := 0
	var walk func(prefix string, s reflect.Value)
	walk = func(prefix string, s reflect.Value) {
		for i := 0; i < s.NumField(); i++ {
			name := prefix + s.Type().Field(i).Name
			f := s.Field(i)
			if _, skip := excluded[name]; skip {
				continue
			}
			if f.Kind() == reflect.Struct {
				walk(name+".", f)
				continue
			}
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			perturb(name, f)
			if key() == base {
				t.Errorf("perturbing %s left CacheKey unchanged", name)
			}
			f.Set(old)
			covered++
		}
	}
	walk("", reflect.ValueOf(&cfg).Elem())
	walk("Workload.", reflect.ValueOf(&w).Elem())
	if key() != base {
		t.Fatal("perturbations were not restored")
	}
	if covered < 40 {
		t.Errorf("only %d fields perturbed; the walk missed the nested params", covered)
	}

	for name, set := range excluded {
		if _, ok := reflect.TypeOf(Config{}).FieldByName(name); !ok {
			t.Errorf("exclusion %q names no Config field", name)
		}
		c := cfg
		set(&c)
		if CacheKey(c, w) != base {
			t.Errorf("excluded field %s changed CacheKey", name)
		}
	}
}

// TestCacheBoundedEviction exercises the LRU bound.
func TestCacheBoundedEviction(t *testing.T) {
	c, err := NewCache(2)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	eq := func(i int) *Equilibrium { return &Equilibrium{Iterations: i} }
	c.Put(nil, "a", eq(1))
	c.Put(nil, "b", eq(2))
	if _, ok := c.Get(nil, "a"); !ok { // refresh "a": "b" becomes LRU
		t.Fatalf("a missing before eviction")
	}
	c.Put(nil, "c", eq(3))
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, bound is 2", c.Len())
	}
	if _, ok := c.Get(nil, "b"); ok {
		t.Errorf("LRU entry b survived eviction")
	}
	if got, ok := c.Get(nil, "a"); !ok || got.Iterations != 1 {
		t.Errorf("recently used entry a evicted")
	}
	if got, ok := c.Get(nil, "c"); !ok || got.Iterations != 3 {
		t.Errorf("newest entry c missing")
	}
	_, _, ev := c.Stats()
	if ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}

	if _, err := NewCache(0); err == nil {
		t.Errorf("NewCache(0) accepted a non-positive capacity")
	}
}

// TestCacheConcurrent hammers one bounded cache from parallel workers mixing
// hits, misses, inserts and evictions; run under -race in CI.
func TestCacheConcurrent(t *testing.T) {
	c, err := NewCache(8)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	const workers = 16
	const opsPerWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("k%d", (id+i)%24)
				if eq, ok := c.Get(nil, key); ok {
					if eq == nil {
						t.Errorf("hit returned nil equilibrium")
						return
					}
					continue
				}
				c.Put(nil, key, &Equilibrium{Iterations: id})
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Errorf("cache exceeded its bound: %d > 8", n)
	}
	hits, misses, _ := c.Stats()
	if hits+misses != workers*opsPerWorker {
		t.Errorf("hit+miss = %d, want %d", hits+misses, workers*opsPerWorker)
	}
}

// TestCachedSolveRoundTrip stores a solved equilibrium and reads it back
// under the canonical key, as the policy layer does per epoch.
func TestCachedSolveRoundTrip(t *testing.T) {
	cfg, w := smallConfig()
	c, err := NewCache(4)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	eq, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	key := CacheKey(cfg, w)
	c.Put(nil, key, eq)
	got, ok := c.Get(nil, CacheKey(cfg, w))
	if !ok {
		t.Fatalf("cached equilibrium not found under recomputed key")
	}
	if got != eq {
		t.Fatalf("cache returned a different equilibrium")
	}
	// Same config arriving via a fresh DefaultConfig value still hits.
	cfg2, w2 := smallConfig()
	if _, ok := c.Get(nil, CacheKey(cfg2, w2)); !ok {
		t.Errorf("structurally identical config missed the cache")
	}
}
