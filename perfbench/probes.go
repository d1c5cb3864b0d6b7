package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/surrogate"
)

// probeSolves is how many cold keys the engine probe solves directly.
const probeSolves = 2

// sink keeps the compiler from discarding the results of timed pure calls.
var sink float64

// perCall times fn over n calls and returns the mean duration of one call.
func perCall(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

// probeLayers times direct calls into each module's public functions and
// adds the per-layer metrics they give. It runs after the traced workload,
// so it perturbs none of that run's numbers.
func probeLayers(ctx context.Context, out *outcome, o options) error {
	cfg, err := solverConfig()
	if err != nil {
		return err
	}
	u, err := traceUniverse(o.seed, 1, probeSolves, cfg)
	if err != nil {
		return err
	}
	eq, err := probeEngine(ctx, out, cfg, u)
	if err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	if err := probeCodec(out, cfg, u, eq, o.tmp); err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	if err := probeKernels(out, cfg, u.workloads[0]); err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	if err := probeSurrogate(ctx, out, cfg, u.workloads[0]); err != nil {
		return fmt.Errorf("surrogate probe: %w", err)
	}
	return nil
}

// probeEngine solves the first cold keys on one session (as a daemon worker
// does) with a request trace attached, and splits each solve into its HJB
// sweeps, FPK sweeps and the estimator work between them.
func probeEngine(ctx context.Context, out *outcome, cfg engine.Config, u *universe) (*engine.Equilibrium, error) {
	sess, err := engine.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	var eq *engine.Equilibrium
	var solve, hjb, fpk time.Duration
	var iters int64
	for _, w := range u.workloads {
		tr := &obs.ReqTrace{ID: "probe"}
		start := time.Now()
		eq, err = sess.SolveContext(obs.WithReqTrace(ctx, tr), w, nil)
		solve += time.Since(start)
		if err != nil && !(errors.Is(err, engine.ErrNotConverged) && eq != nil) {
			return nil, err
		}
		for _, st := range tr.Stages() {
			switch st.Stage {
			case "hjb_sweep":
				hjb += st.Dur
			case "fpk_sweep":
				fpk += st.Dur
			case "fixed_point_iterations":
				iters += st.N
			}
		}
	}
	n := float64(len(u.workloads))
	it := float64(iters)
	out.layer["engine.solve_ms"] = ms(solve) / n
	out.layer["engine.iterations_per_solve"] = it / n
	out.layer["engine.iteration_ms"] = ratio(ms(solve), it)
	out.layer["engine.estimator_ms"] = ms(solve-hjb-fpk) / n
	out.layer["pde.hjb_sweep_ms"] = ratio(ms(hjb), it)
	out.layer["pde.fpk_sweep_ms"] = ratio(ms(fpk), it)
	return eq, nil
}

// probeCodec times the equilibrium codec, the cache key, an LRU hit and a
// disk-store read of one solved equilibrium.
func probeCodec(out *outcome, cfg engine.Config, u *universe, eq *engine.Equilibrium, tmp string) error {
	var blob []byte
	var marshal, unmarshal []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		b, err := engine.MarshalEquilibrium(eq)
		marshal = append(marshal, ms(time.Since(start)))
		if err != nil {
			return err
		}
		blob = b
		start = time.Now()
		if _, err := engine.UnmarshalEquilibrium(blob); err != nil {
			return err
		}
		unmarshal = append(unmarshal, ms(time.Since(start)))
	}
	out.layer["engine.blob_bytes"] = float64(len(blob))
	out.layer["engine.marshal_ms"] = median(marshal)
	out.layer["engine.unmarshal_ms"] = median(unmarshal)

	w := u.workloads[len(u.workloads)-1]
	key := engine.CacheKey(cfg, w)
	out.layer["engine.cachekey_us"] = perCall(2000, func(int) { sink += float64(len(engine.CacheKey(cfg, w))) }).Seconds() * 1e6
	cache, err := engine.NewCache(16)
	if err != nil {
		return err
	}
	cache.Put(nil, key, eq)
	out.layer["engine.cache_get_us"] = perCall(2000, func(int) {
		if _, ok := cache.Get(nil, key); ok {
			sink++
		}
	}).Seconds() * 1e6

	dir, err := os.MkdirTemp(tmp, "probe-store-")
	if err != nil {
		return err
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	st.Put(key, blob)
	st.Flush()
	var gets []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		b, ok := st.Get(key)
		gets = append(gets, ms(time.Since(start)))
		if !ok || len(b) != len(blob) {
			return fmt.Errorf("store read back %d bytes (hit %v), wrote %d", len(b), ok, len(blob))
		}
	}
	out.layer["store.get_ms"] = median(gets)
	return nil
}

// probeKernels times the model callbacks at the grid's states and one
// batched Thomas solve at the grid's line shape.
func probeKernels(out *outcome, cfg engine.Config, w engine.Workload) error {
	p := cfg.Params
	ch, err := mec.NewChannelModel(p)
	if err != nil {
		return err
	}
	uc, err := mec.NewUtilityContext(p, ch)
	if err != nil {
		return err
	}
	uc.Requests, uc.Pop, uc.Timeliness = w.Requests, w.Pop, w.Timeliness
	states := cfg.NH * cfg.NQ
	state := func(i int) (x, h, q float64) {
		ih, iq := i%cfg.NH, (i/cfg.NH)%cfg.NQ
		h = p.HMin + (p.HMax-p.HMin)*float64(ih)/float64(cfg.NH-1)
		q = p.Qk * float64(iq) / float64(cfg.NQ-1)
		return float64(i%11) / 10, h, q
	}
	calls := 200 * states
	out.layer["mec.terms_ns"] = float64(perCall(calls, func(i int) {
		x, h, q := state(i)
		sink += uc.Terms(x, h, q).Total()
	}).Nanoseconds())
	drift := uc.CacheDrift()
	out.layer["sde.cache_drift_ns"] = float64(perCall(calls, func(i int) {
		x, _, _ := state(i)
		sink += drift.Rate(x, w.Pop, w.Timeliness)
	}).Nanoseconds())

	tb := linalg.NewTridiagBatch[float64](cfg.NQ)
	for i := range tb.B {
		tb.A[i], tb.B[i], tb.C[i] = -1, 4, -1
	}
	if err := tb.Factorize(); err != nil {
		return err
	}
	x := make([]float64, cfg.NQ*cfg.NH)
	for i := range x {
		x[i] = float64(i % 7)
	}
	var solveErr error
	out.layer["linalg.batch_solve_us"] = perCall(2000, func(int) {
		if err := tb.SolveInterleaved(x, cfg.NH); err != nil {
			solveErr = err
		}
	}).Seconds() * 1e6
	sink += x[0]
	return solveErr
}

// probeSurrogate builds a small table around w on a coarse grid (the lookup
// interpolates the same 64 time samples whatever the grid) and times
// in-region lookups.
func probeSurrogate(ctx context.Context, out *outcome, cfg engine.Config, w engine.Workload) error {
	small := cfg
	small.NH, small.NQ = 5, 11
	tab, err := surrogate.Build(ctx, surrogate.BuildConfig{
		Config:     small,
		Requests:   surrogate.AxisSpec{Min: w.Requests, Max: w.Requests + 10, N: 2},
		Pop:        surrogate.AxisSpec{Min: w.Pop / 2, Max: w.Pop, N: 2},
		Timeliness: surrogate.AxisSpec{Min: w.Timeliness, N: 1},
		Workers:    1,
	})
	if err != nil {
		return err
	}
	probe := engine.Workload{Requests: w.Requests + 3, Pop: w.Pop * 0.7, Timeliness: w.Timeliness}
	if _, ok := tab.Lookup(small, probe); !ok {
		return fmt.Errorf("probe workload %+v is outside the probe table's trust region", probe)
	}
	out.layer["surrogate.lookup_us"] = perCall(200, func(int) {
		if s, ok := tab.Lookup(small, probe); ok {
			sink += s.ErrorBound
		}
	}).Seconds() * 1e6
	return nil
}
