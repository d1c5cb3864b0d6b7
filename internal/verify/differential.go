package verify

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/engine"
	"repro/internal/exactgame"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CompareObservables checks two equilibria for agreement of the market
// observables the rest of the system consumes — the price path, the mean
// caching rate and the mean remaining space — in the sup norm over time,
// each normalised to its natural scale (p̂, 1, Qk), plus the final density
// in the L1 norm, against SchemeTol/DensityTol. oracle names the caller in
// the violations.
func CompareObservables(a, b *engine.Equilibrium, oracle string, tol Tolerances) []Violation {
	var out []Violation
	if len(a.Snapshots) != len(b.Snapshots) {
		return []Violation{violationf(oracle, float64(len(b.Snapshots)), float64(len(a.Snapshots)),
			"snapshot counts differ: %d vs %d", len(a.Snapshots), len(b.Snapshots))}
	}
	p := a.Config.Params
	var dPrice, dMeanX, dQBar float64
	for n := range a.Snapshots {
		sa, sb := a.Snapshots[n], b.Snapshots[n]
		dPrice = math.Max(dPrice, math.Abs(sa.Price-sb.Price)/p.PHat)
		dMeanX = math.Max(dMeanX, math.Abs(sa.MeanControl-sb.MeanControl))
		dQBar = math.Max(dQBar, math.Abs(sa.QBar-sb.QBar)/p.Qk)
	}
	for _, m := range []struct {
		name string
		d    float64
	}{
		{"price (relative to p̂)", dPrice},
		{"mean control", dMeanX},
		{"mean remaining space (relative to Qk)", dQBar},
	} {
		if m.d > tol.SchemeTol || math.IsNaN(m.d) {
			out = append(out, violationf(oracle, m.d, tol.SchemeTol,
				"sup-over-time %s disagreement %.3g", m.name, m.d))
		}
	}
	if a.FPK != nil && b.FPK != nil {
		la := a.FPK.Lambda[len(a.FPK.Lambda)-1]
		lb := b.FPK.Lambda[len(b.FPK.Lambda)-1]
		if len(la) == len(lb) {
			d, err := numerics.L1Distance(la, lb, a.Grid.CellArea())
			if err != nil {
				out = append(out, violationf(oracle, 0, 0, "final-density L1 distance: %v", err))
			} else if d > tol.DensityTol || math.IsNaN(d) {
				out = append(out, violationf(oracle, d, tol.DensityTol,
					"final-density L1 disagreement %.3g", d))
			}
		} else {
			out = append(out, violationf(oracle, float64(len(lb)), float64(len(la)),
				"density field sizes differ: %d vs %d", len(la), len(lb)))
		}
	}
	return out
}

// BitEqual checks two equilibria for bit-for-bit identity of every solver
// output: value function, strategy, density path, snapshots, residuals and
// the convergence verdict. It is the contract of deterministic re-solves
// (cache round-trips, repeated cold solves of the same inputs).
func BitEqual(a, b *engine.Equilibrium, oracle string) []Violation {
	fail := func(format string, args ...any) []Violation {
		return []Violation{violationf(oracle, 0, 0, format, args...)}
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		return fail("diagnostics differ: %d/%v vs %d/%v iterations/converged",
			a.Iterations, a.Converged, b.Iterations, b.Converged)
	}
	if len(a.Residuals) != len(b.Residuals) {
		return fail("residual histories differ in length: %d vs %d", len(a.Residuals), len(b.Residuals))
	}
	for i := range a.Residuals {
		if a.Residuals[i] != b.Residuals[i] {
			return fail("residual %d differs: %g vs %g", i, a.Residuals[i], b.Residuals[i])
		}
	}
	if len(a.Snapshots) != len(b.Snapshots) {
		return fail("snapshot counts differ: %d vs %d", len(a.Snapshots), len(b.Snapshots))
	}
	for n := range a.Snapshots {
		if a.Snapshots[n] != b.Snapshots[n] {
			return fail("snapshot %d differs: %+v vs %+v", n, a.Snapshots[n], b.Snapshots[n])
		}
	}
	paths := []struct {
		name string
		a, b [][]float64
	}{
		{"V", a.HJB.V, b.HJB.V},
		{"X", a.HJB.X, b.HJB.X},
		{"Lambda", a.FPK.Lambda, b.FPK.Lambda},
	}
	for _, p := range paths {
		if len(p.a) != len(p.b) {
			return fail("%s path lengths differ: %d vs %d", p.name, len(p.a), len(p.b))
		}
		for n := range p.a {
			if len(p.a[n]) != len(p.b[n]) {
				return fail("%s[%d] sizes differ: %d vs %d", p.name, n, len(p.a[n]), len(p.b[n]))
			}
			for k := range p.a[n] {
				if p.a[n][k] != p.b[n][k] &&
					!(math.IsNaN(p.a[n][k]) && math.IsNaN(p.b[n][k])) {
					return fail("%s[%d][%d] differs: %g vs %g (bit-equality contract)",
						p.name, n, k, p.a[n][k], p.b[n][k])
				}
			}
		}
	}
	return nil
}

// SchemeAgreement solves the same configuration under the implicit and the
// explicit time integrator and checks the market observables agree within
// SchemeTol. The config must be CFL-safe for the explicit scheme (the
// default differential grid, 7×15 over 48 steps, is).
func SchemeAgreement(cfg engine.Config, w engine.Workload, tol Tolerances) ([]Violation, error) {
	implicitCfg := cfg
	implicitCfg.Scheme = "implicit"
	explicitCfg := cfg
	explicitCfg.Scheme = "explicit"

	eqI, err := solveFor(implicitCfg, w)
	if err != nil {
		return nil, fmt.Errorf("implicit scheme: %w", err)
	}
	eqE, err := solveFor(explicitCfg, w)
	if err != nil {
		return nil, fmt.Errorf("explicit scheme: %w", err)
	}
	return CompareObservables(eqI, eqE, "scheme-differential", tol), nil
}

// CacheBitEquality checks the engine's determinism and cache transparency:
// two cold solves of identical inputs must agree bit-for-bit, and an
// equilibrium stored in the cache must come back under the same key
// unchanged (a cache hit is indistinguishable from a re-solve).
func CacheBitEquality(cfg engine.Config, w engine.Workload) ([]Violation, error) {
	eq1, err := solveFor(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("first cold solve: %w", err)
	}
	eq2, err := solveFor(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("second cold solve: %w", err)
	}
	out := BitEqual(eq1, eq2, "cache-bit-equality")

	cache, err := engine.NewCache(2)
	if err != nil {
		return nil, err
	}
	key := engine.CacheKey(cfg, w)
	cache.Put(obs.Nop, key, eq1)
	hit, ok := cache.Get(obs.Nop, key)
	if !ok {
		out = append(out, violationf("cache-bit-equality", 0, 0,
			"cache miss immediately after Put under key %q", key))
		return out, nil
	}
	out = append(out, BitEqual(eq1, hit, "cache-bit-equality")...)
	if other := engine.CacheKey(cfg, engine.Workload{Requests: w.Requests + 1, Pop: w.Pop, Timeliness: w.Timeliness}); other == key {
		out = append(out, violationf("cache-bit-equality", 0, 0,
			"cache key does not separate distinct workloads"))
	}
	return out, nil
}

// cancelAfter is a Recorder that cancels a context once a named counter
// reaches a threshold — the deterministic stand-in for a mid-run kill used
// by the checkpoint/resume harness.
type cancelAfter struct {
	obs.Recorder
	name   string
	after  float64
	seen   float64
	cancel context.CancelFunc
}

func (c *cancelAfter) Add(name string, delta float64) {
	c.Recorder.Add(name, delta)
	if name == c.name {
		c.seen += delta
		if c.seen >= c.after {
			c.cancel()
		}
	}
}

// CheckpointResume checks the resilience layer's bit-for-bit resume
// contract differentially: an uninterrupted run, and a run killed right
// after its first epoch-boundary snapshot then resumed from disk, must
// produce identical results (ledgers, epoch stats, final states). mkConfig
// must build a fresh configuration — in particular a fresh policy instance
// — on every call: policies are stateful (warm starts, cached sessions), so
// sharing one across the three phases would leak state between runs and
// break the comparison. dir is the scratch directory for the snapshot.
func CheckpointResume(mkConfig func() sim.Config, dir string) ([]Violation, error) {
	baseline := mkConfig()
	if baseline.Epochs < 2 {
		return nil, errors.New("verify: CheckpointResume needs ≥ 2 epochs to kill mid-run")
	}
	want, err := sim.Run(baseline)
	if err != nil {
		return nil, fmt.Errorf("uninterrupted run: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := mkConfig()
	killed.Checkpoint = sim.CheckpointConfig{Dir: dir}
	killed.Obs = &cancelAfter{Recorder: obs.Nop, name: "sim.checkpoint.writes", after: 1, cancel: cancel}
	if _, err := sim.RunContext(ctx, killed); !errors.Is(err, sim.ErrInterrupted) {
		return nil, fmt.Errorf("killed run: got %v, want ErrInterrupted", err)
	}

	resumed := mkConfig()
	resumed.Checkpoint = sim.CheckpointConfig{Dir: dir, Resume: true}
	reg := obs.NewRegistry(nil)
	resumed.Obs = reg
	got, err := sim.Run(resumed)
	if err != nil {
		return nil, fmt.Errorf("resumed run: %w", err)
	}
	var out []Violation
	if reg.Snapshot().Counters["sim.checkpoint.resumes"] != 1 {
		out = append(out, violationf("checkpoint-resume", 0, 1,
			"resumed run did not restore from the snapshot"))
	}
	out = append(out, compareSimResults(want, got)...)
	return out, nil
}

// compareSimResults checks everything a resumed run must reproduce
// bit-for-bit; StrategyTime is wall clock and is excluded.
func compareSimResults(want, got *sim.Result) []Violation {
	fail := func(format string, args ...any) []Violation {
		return []Violation{violationf("checkpoint-resume", 0, 0, format, args...)}
	}
	if got.PolicyName != want.PolicyName || got.M != want.M || got.Epochs != want.Epochs {
		return fail("run metadata differs: %s/%d/%d vs %s/%d/%d",
			got.PolicyName, got.M, got.Epochs, want.PolicyName, want.M, want.Epochs)
	}
	if len(got.Ledgers) != len(want.Ledgers) {
		return fail("ledger counts differ: %d vs %d", len(got.Ledgers), len(want.Ledgers))
	}
	for i := range want.Ledgers {
		if got.Ledgers[i] != want.Ledgers[i] {
			return fail("ledger %d differs: %+v vs %+v", i, got.Ledgers[i], want.Ledgers[i])
		}
	}
	if len(got.Stats) != len(want.Stats) {
		return fail("epoch-stat counts differ: %d vs %d", len(got.Stats), len(want.Stats))
	}
	for e := range want.Stats {
		a, b := got.Stats[e], want.Stats[e]
		a.StrategyTime, b.StrategyTime = 0, 0
		if a != b {
			return fail("epoch %d stats differ: %+v vs %+v", e, a, b)
		}
	}
	for i := range want.FinalQ {
		for k := range want.FinalQ[i] {
			if got.FinalQ[i][k] != want.FinalQ[i][k] {
				return fail("FinalQ[%d][%d] differs: %g vs %g", i, k, got.FinalQ[i][k], want.FinalQ[i][k])
			}
		}
		if got.FinalH[i] != want.FinalH[i] {
			return fail("FinalH[%d] differs: %g vs %g", i, got.FinalH[i], want.FinalH[i])
		}
	}
	return nil
}

// FiniteMAgreement validates the mean-field limit differentially: for a
// symmetric population, the finite-M exact game's population-mean strategy
// must approach the MFG mean control as M grows — the gap at the largest M
// must be below FiniteMTol and must not grow (beyond FiniteMGrowth×) from
// one M to the next. Ms must be increasing.
func FiniteMAgreement(cfg engine.Config, w engine.Workload, ms []int, tol Tolerances) ([]Violation, error) {
	if len(ms) < 2 {
		return nil, errors.New("verify: FiniteMAgreement needs at least two population sizes")
	}
	mfg, err := solveFor(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("mean-field solve: %w", err)
	}

	exCfg := exactgame.DefaultConfig(cfg.Params)
	exCfg.NH, exCfg.NQ, exCfg.Steps = cfg.NH, cfg.NQ, cfg.Steps
	exCfg.Share = cfg.ShareEnabled

	gaps := make([]float64, len(ms))
	for i, m := range ms {
		sol, err := exactgame.Solve(exCfg, w, exactgame.SymmetricInits(cfg.Params, m))
		if err != nil && !errors.Is(err, exactgame.ErrNotConverged) {
			return nil, fmt.Errorf("exact game with M=%d: %w", m, err)
		}
		// The population is symmetric, so every agent carries the same mean
		// strategy; use the population average anyway to be robust to
		// round-off asymmetries from the sequential best-response order.
		var gap float64
		for n := 0; n <= exCfg.Steps; n++ {
			var mean float64
			for _, a := range sol.Agents {
				mean += a.MeanX[n]
			}
			mean /= float64(len(sol.Agents))
			if d := math.Abs(mean - mfg.Snapshots[n].MeanControl); d > gap {
				gap = d
			}
		}
		gaps[i] = gap
	}

	var out []Violation
	last := gaps[len(gaps)-1]
	if last > tol.FiniteMTol || math.IsNaN(last) {
		out = append(out, violationf("finite-m-differential", last, tol.FiniteMTol,
			"exact game at M=%d disagrees with the mean field by %.3g sup-over-time", ms[len(ms)-1], last))
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] > gaps[i-1]*tol.FiniteMGrowth+1e-12 {
			out = append(out, violationf("finite-m-differential", gaps[i], gaps[i-1]*tol.FiniteMGrowth,
				"mean-field gap grew from %.3g (M=%d) to %.3g (M=%d); must shrink as M grows",
				gaps[i-1], ms[i-1], gaps[i], ms[i]))
		}
	}
	return out, nil
}

// scratchDir creates a temp directory for a differential harness and
// returns it with its cleanup.
func scratchDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "mfgcp-verify-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
