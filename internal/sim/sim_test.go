package sim

import (
	"math"
	"testing"

	"repro/internal/mec"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sde"
	"repro/internal/trace"
)

func quickConfig(t *testing.T, pol policy.Policy) Config {
	t.Helper()
	p := mec.Default()
	p.M = 12
	p.K = 4
	cfg := DefaultConfig(p, pol)
	cfg.Epochs = 1
	cfg.StepsPerEpoch = 15
	cfg.Solver.NH = 5
	cfg.Solver.NQ = 21
	cfg.Solver.Steps = 30
	cfg.Solver.MaxIters = 20
	return cfg
}

func TestRunBasicInvariants(t *testing.T) {
	cfg := quickConfig(t, policy.NewMFGCP())
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.PolicyName != "MFG-CP" || res.M != 12 || res.Epochs != 1 {
		t.Fatalf("result metadata wrong: %+v", res)
	}
	if len(res.Ledgers) != 12 || len(res.FinalQ) != 12 || len(res.FinalH) != 12 {
		t.Fatal("per-EDP slices have wrong lengths")
	}
	p := cfg.Params
	for i, l := range res.Ledgers {
		if l.Trading < 0 || l.Sharing < 0 || l.Placement < 0 || l.Staleness < 0 || l.ShareCost < 0 {
			t.Fatalf("EDP %d has negative ledger entries: %+v", i, l)
		}
		if math.IsNaN(l.Utility()) {
			t.Fatalf("EDP %d utility is NaN", i)
		}
		for k, q := range res.FinalQ[i] {
			if q < 0 || q > p.Qk {
				t.Fatalf("EDP %d content %d final q=%g outside [0,Qk]", i, k, q)
			}
		}
		if res.FinalH[i] < p.HMin || res.FinalH[i] > p.HMax {
			t.Fatalf("EDP %d final h=%g outside fading range", i, res.FinalH[i])
		}
	}
	if len(res.Stats) != 1 {
		t.Fatalf("expected 1 epoch stat, got %d", len(res.Stats))
	}
	es := res.Stats[0]
	if es.MeanPrice <= 0 || es.MeanPrice > p.PHat {
		t.Errorf("mean price %g outside (0, p̂]", es.MeanPrice)
	}
	if es.MeanRate < 0 || es.MeanRate > 1 {
		t.Errorf("mean caching rate %g outside [0,1]", es.MeanRate)
	}
	if res.StrategyTime <= 0 {
		t.Error("strategy time not recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickConfig(t, policy.NewRR()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(t, policy.NewRR()))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanUtility() != b.MeanUtility() {
		t.Error("same seed should give identical results")
	}
	cfg := quickConfig(t, policy.NewRR())
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanUtility() == c.MeanUtility() {
		t.Error("different seeds should give different results")
	}
}

// TestReusedPolicyStartsFromItsOwnRunConfig runs one MFG-CP policy through a
// market with an equilibrium cache and the recovery ladder, then through a
// second market with neither: the second run must not reach the first run's
// cache, so none of its solves is a cache hit or even a lookup.
func TestReusedPolicyStartsFromItsOwnRunConfig(t *testing.T) {
	pol := policy.NewMFGCP()
	market := func() Config {
		cfg := quickConfig(t, pol)
		cfg.Params.M = 20
		cfg.Epochs = 2
		return cfg
	}
	first := market()
	first.EqCacheSize = 16
	ladder := resilience.DefaultEscalation()
	first.Recovery = &ladder
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}

	second := market()
	reg := obs.NewRegistry(nil)
	second.Obs = reg
	if _, err := Run(second); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"engine.cache.hit", "engine.cache.miss"} {
		if n := snap.Counters[name]; n != 0 {
			t.Errorf("the second run, configured without a cache, recorded %s %g times", name, n)
		}
	}
	if n := snap.Counters["core.solver.solves"]; n == 0 {
		t.Error("the second run solved nothing: the scenario does not exercise the policy")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := quickConfig(t, policy.NewRR())
	cfg.Policy = nil
	if _, err := Run(cfg); err == nil {
		t.Error("nil policy should be rejected")
	}
	cfg = quickConfig(t, policy.NewRR())
	cfg.Epochs = 0
	if _, err := Run(cfg); err == nil {
		t.Error("0 epochs should be rejected")
	}
	cfg = quickConfig(t, policy.NewRR())
	cfg.StepsPerEpoch = 0
	if _, err := Run(cfg); err == nil {
		t.Error("0 steps should be rejected")
	}
	cfg = quickConfig(t, policy.NewRR())
	cfg.RequestsPerEDP = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative demand should be rejected")
	}
	cfg = quickConfig(t, policy.NewRR())
	cfg.Area = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero area should be rejected")
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, pol := range []policy.Policy{policy.NewMFGCP(), policy.NewMFG(), policy.NewRR(), policy.NewMPC(), policy.NewUDCS()} {
		res, err := Run(quickConfig(t, pol))
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if math.IsNaN(res.MeanUtility()) {
			t.Fatalf("%s: NaN utility", pol.Name())
		}
	}
}

func TestSharingLedgersBalance(t *testing.T) {
	// Sharing payments are zero-sum: total Sharing income equals total
	// ShareCost across the population.
	cfg := quickConfig(t, policy.NewMFGCP())
	cfg.Epochs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var income, cost float64
	for _, l := range res.Ledgers {
		income += l.Sharing
		cost += l.ShareCost
	}
	if math.Abs(income-cost) > 1e-9*(1+income) {
		t.Errorf("sharing market does not balance: income %g vs cost %g", income, cost)
	}
}

func TestNoSharingForMFGBaseline(t *testing.T) {
	res, err := Run(quickConfig(t, policy.NewMFG()))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Ledgers {
		if l.Sharing != 0 || l.ShareCost != 0 {
			t.Fatalf("EDP %d recorded sharing under the MFG baseline: %+v", i, l)
		}
	}
}

func TestHeterogeneousDemand(t *testing.T) {
	cfg := quickConfig(t, policy.NewRR())
	cfg.HeterogeneousDemand = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.MeanUtility()) {
		t.Fatal("NaN utility with heterogeneous demand")
	}
}

func TestExactInterferenceAblation(t *testing.T) {
	base, err := Run(quickConfig(t, policy.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(t, policy.NewMPC())
	cfg.ExactInterference = true
	exact, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The two interference models must both produce finite results and
	// should not coincide exactly.
	if math.IsNaN(exact.MeanUtility()) {
		t.Fatal("NaN utility under exact interference")
	}
	if base.MeanLedger().Staleness == exact.MeanLedger().Staleness {
		t.Error("exact and mean-field interference gave identical staleness")
	}
}

func TestEmpiricalQDensity(t *testing.T) {
	res, err := Run(quickConfig(t, policy.NewMPC()))
	if err != nil {
		t.Fatal(err)
	}
	dens, err := res.EmpiricalQDensity(0, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	for _, d := range dens {
		if d < 0 {
			t.Fatal("negative density")
		}
		integral += d * 10 // bin width 100/10
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Errorf("empirical density integrates to %g", integral)
	}
	if _, err := res.EmpiricalQDensity(-1, 10, 100); err == nil {
		t.Error("bad content index should error")
	}
	if _, err := res.EmpiricalQDensity(0, 0, 100); err == nil {
		t.Error("0 bins should error")
	}
}

// Mean-field cross-validation: the empirical distribution of remaining space
// under the MFG-CP policy should resemble the FPK density of the solved
// equilibrium for the same content. This is the structural test that the
// mean-field approximation describes the finite-M market.
func TestEmpiricalMatchesFPK(t *testing.T) {
	p := mec.Default()
	p.M = 400 // large population for the mean-field limit
	p.K = 2
	pol := policy.NewMFGCP()
	cfg := DefaultConfig(p, pol)
	cfg.Epochs = 1
	cfg.StepsPerEpoch = 60
	cfg.Seed = 5
	cfg.Solver.NH = 7
	cfg.Solver.NQ = 41
	cfg.Solver.Steps = 60
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := pol.Equilibrium(0)
	if err != nil {
		t.Fatal(err)
	}
	if eq == nil {
		t.Fatal("content 0 was not solved")
	}
	// FPK marginal at the end of the epoch, rebinned to the histogram grid.
	marg, err := eq.MarginalQ(eq.Time.Steps)
	if err != nil {
		t.Fatal(err)
	}
	const bins = 10
	emp, err := res.EmpiricalQDensity(0, bins, p.Qk)
	if err != nil {
		t.Fatal(err)
	}
	fpkBinned := make([]float64, bins)
	per := len(marg) / bins
	for b := 0; b < bins; b++ {
		var s float64
		n := 0
		for j := b * per; j < (b+1)*per && j < len(marg); j++ {
			s += marg[j]
			n++
		}
		fpkBinned[b] = s / float64(n)
	}
	// Normalise both to unit mass on the bin grid before comparing.
	normalize := func(v []float64) {
		var tot float64
		for _, x := range v {
			tot += x
		}
		if tot > 0 {
			for i := range v {
				v[i] /= tot
			}
		}
	}
	normalize(emp)
	normalize(fpkBinned)
	dist, err := numerics.L1Distance(emp, fpkBinned, 1)
	if err != nil {
		t.Fatal(err)
	}
	// L1 over probability vectors is in [0,2]; require substantially closer
	// than uninformed (uniform vs point mass would be ≈1.8).
	if dist > 0.6 {
		t.Errorf("empirical vs FPK L1 distance %.3f too large: emp=%v fpk=%v", dist, emp, fpkBinned)
	}
}

func TestMFGCPBeatsBaselinesInUtility(t *testing.T) {
	// The headline claim (Fig. 14): MFG-CP's utility exceeds RR and MPC.
	run := func(pol policy.Policy) float64 {
		cfg := quickConfig(t, pol)
		cfg.Epochs = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		return res.MeanUtility()
	}
	mfgcp := run(policy.NewMFGCP())
	if rr := run(policy.NewRR()); mfgcp <= rr {
		t.Errorf("MFG-CP (%.1f) should beat RR (%.1f)", mfgcp, rr)
	}
	if mpc := run(policy.NewMPC()); mfgcp <= mpc {
		t.Errorf("MFG-CP (%.1f) should beat MPC (%.1f)", mfgcp, mpc)
	}
}

func TestPeerIndexNeverSelf(t *testing.T) {
	rng := sde.NewRNG(42)
	for m := 2; m <= 5; m++ {
		seen := make(map[int]bool)
		for trial := 0; trial < 200; trial++ {
			j := peerIndex(rng, m, 1)
			if j == 1 {
				t.Fatalf("peerIndex returned self for m=%d", m)
			}
			if j < 0 || j >= m {
				t.Fatalf("peerIndex out of range: %d for m=%d", j, m)
			}
			seen[j] = true
		}
		if len(seen) != m-1 {
			t.Errorf("m=%d: only %d of %d peers ever drawn", m, len(seen), m-1)
		}
	}
	if got := peerIndex(sde.NewRNG(1), 1, 0); got != 0 {
		t.Errorf("single-EDP market should return self, got %d", got)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig(mec.Default(), policy.NewRR())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := cfg.Solver.Validate(); err != nil {
		t.Fatalf("default solver config invalid: %v", err)
	}
}

func TestSingleEDPMarket(t *testing.T) {
	// M=1 exercises the Eq. 5 monopoly branch: the price is always p̂.
	p := mec.Default()
	p.M = 1
	p.K = 2
	cfg := DefaultConfig(p, policy.NewMPC())
	cfg.Epochs = 1
	cfg.StepsPerEpoch = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("single-EDP market: %v", err)
	}
	if math.Abs(res.Stats[0].MeanPrice-p.PHat) > 1e-9 {
		t.Errorf("monopoly price %g, want p̂=%g", res.Stats[0].MeanPrice, p.PHat)
	}
	// With sharing enabled but no peers, no sharing settlements occur.
	if l := res.MeanLedger(); l.Sharing != 0 || l.ShareCost != 0 {
		t.Errorf("monopolist recorded sharing: %+v", l)
	}
}

func TestSingleContentMarket(t *testing.T) {
	p := mec.Default()
	p.M = 6
	p.K = 1
	cfg := DefaultConfig(p, policy.NewRR())
	cfg.Epochs = 1
	cfg.StepsPerEpoch = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("single-content market: %v", err)
	}
	if math.IsNaN(res.MeanUtility()) {
		t.Fatal("NaN utility")
	}
	if len(res.FinalQ[0]) != 1 {
		t.Fatalf("expected one content column, got %d", len(res.FinalQ[0]))
	}
}

func TestTraceCategoryMismatchRejected(t *testing.T) {
	cfg := quickConfig(t, policy.NewRR())
	gen := trace.DefaultGenConfig()
	gen.K = cfg.Params.K + 3
	ds, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = ds
	if _, err := Run(cfg); err == nil {
		t.Error("trace/params category mismatch should be rejected")
	}
}
