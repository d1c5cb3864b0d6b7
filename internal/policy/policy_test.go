package policy

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/mec"
)

func testContext(t *testing.T, m int) *EpochContext {
	t.Helper()
	p := mec.Default()
	p.M = m
	catalog, err := mec.NewCatalog(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]float64, p.K)
	for k := range reqs {
		reqs[k] = float64(20 - k) // decreasing demand, content K-1 gets 1
	}
	if err := catalog.UpdatePopularity(reqs); err != nil {
		t.Fatal(err)
	}
	workloads := make([]engine.Workload, p.K)
	for k := range workloads {
		workloads[k] = engine.Workload{Requests: reqs[k], Pop: catalog.Contents[k].Pop, Timeliness: 2}
	}
	solver := engine.DefaultConfig(p)
	solver.NH, solver.NQ, solver.Steps, solver.MaxIters = 5, 21, 30, 20
	return &EpochContext{
		Params:    p,
		Catalog:   catalog,
		Workloads: workloads,
		Solver:    solver,
		Epoch:     0,
		Seed:      7,
		M:         m,
	}
}

func TestEpochContextValidation(t *testing.T) {
	ctx := testContext(t, 10)
	if err := ctx.Validate(); err != nil {
		t.Fatalf("valid context rejected: %v", err)
	}
	bad := *ctx
	bad.Catalog = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil catalog should be rejected")
	}
	bad = *ctx
	bad.Workloads = bad.Workloads[:3]
	if err := bad.Validate(); err == nil {
		t.Error("short workloads should be rejected")
	}
	bad = *ctx
	bad.M = 0
	if err := bad.Validate(); err == nil {
		t.Error("M=0 should be rejected")
	}
}

func ratesInRange(t *testing.T, p Policy, ctx *EpochContext) {
	t.Helper()
	for _, edp := range []int{0, ctx.M - 1} {
		for k := 0; k < ctx.Params.K; k += 5 {
			for _, q := range []float64{0, 30, 70, 100} {
				x, err := p.Rate(edp, k, 0.3, 5, q)
				if err != nil {
					t.Fatalf("%s.Rate(%d,%d,q=%g): %v", p.Name(), edp, k, q, err)
				}
				if x < 0 || x > 1 {
					t.Fatalf("%s rate %g outside [0,1]", p.Name(), x)
				}
			}
		}
	}
}

func TestAllPoliciesPrepareAndRate(t *testing.T) {
	ctx := testContext(t, 8)
	pols := []Policy{NewMFGCP(), NewMFG(), NewRR(), NewMPC(), NewUDCS()}
	for _, p := range pols {
		if err := p.Prepare(ctx); err != nil {
			t.Fatalf("%s.Prepare: %v", p.Name(), err)
		}
		ratesInRange(t, p, ctx)
		if _, err := p.Rate(0, -1, 0, 5, 50); err == nil {
			t.Errorf("%s: negative content index should error", p.Name())
		}
		if _, err := p.Rate(0, ctx.Params.K, 0, 5, 50); err == nil {
			t.Errorf("%s: out-of-range content index should error", p.Name())
		}
	}
}

func TestPolicyNamesAndSharing(t *testing.T) {
	cases := []struct {
		p     Policy
		name  string
		share bool
	}{
		{NewMFGCP(), "MFG-CP", true},
		{NewMFG(), "MFG", false},
		{NewRR(), "RR", true},
		{NewMPC(), "MPC", true},
		{NewUDCS(), "UDCS", false},
	}
	for _, c := range cases {
		if c.p.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.p.Name(), c.name)
		}
		if c.p.SharingEnabled() != c.share {
			t.Errorf("%s.SharingEnabled = %v, want %v", c.name, c.p.SharingEnabled(), c.share)
		}
	}
}

func TestMFGCPSkipsUnrequestedContents(t *testing.T) {
	ctx := testContext(t, 4)
	ctx.Workloads[3].Requests = 0
	p := NewMFGCP()
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	x, err := p.Rate(0, 3, 0.2, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0 {
		t.Errorf("unrequested content should not be cached, got x=%g", x)
	}
	eq, err := p.Equilibrium(3)
	if err != nil {
		t.Fatal(err)
	}
	if eq != nil {
		t.Error("unrequested content should have no equilibrium")
	}
	eq, err = p.Equilibrium(0)
	if err != nil {
		t.Fatal(err)
	}
	if eq == nil {
		t.Error("requested content should have an equilibrium")
	}
	if _, err := p.Equilibrium(-1); err == nil {
		t.Error("bad index should error")
	}
}

func TestMFGCPDiffersFromMFG(t *testing.T) {
	ctx := testContext(t, 4)
	withShare := NewMFGCP()
	noShare := NewMFG()
	if err := withShare.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := noShare.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	var diff float64
	for _, q := range []float64{10, 30, 50, 70, 90} {
		a, err := withShare.Rate(0, 0, 0.2, 5, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := noShare.Rate(0, 0, 0.2, 5, q)
		if err != nil {
			t.Fatal(err)
		}
		diff = math.Max(diff, math.Abs(a-b))
	}
	if diff < 1e-9 {
		t.Error("sharing on/off produced identical strategies")
	}
}

func TestRRPerEDPVariation(t *testing.T) {
	ctx := testContext(t, 30)
	p := NewRR()
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	// Strategies must differ across EDPs (each draws independently).
	distinct := map[float64]bool{}
	for i := 0; i < 30; i++ {
		x, err := p.Rate(i, 0, 0, 5, 50)
		if err != nil {
			t.Fatal(err)
		}
		distinct[x] = true
	}
	if len(distinct) < 10 {
		t.Errorf("RR produced only %d distinct rates across 30 EDPs", len(distinct))
	}
	// Constant within an epoch.
	a, _ := p.Rate(3, 0, 0.1, 5, 50)
	b, _ := p.Rate(3, 0, 0.9, 2, 10)
	if a != b {
		t.Error("RR rate should be constant within the epoch")
	}
	// Unrequested contents are not cached.
	ctx.Workloads[5].Requests = 0
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if x, _ := p.Rate(0, 5, 0, 5, 50); x != 0 {
		t.Errorf("RR cached an unrequested content: %g", x)
	}
}

func TestMPCHotSetOnly(t *testing.T) {
	ctx := testContext(t, 5)
	p := NewMPC()
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	// Top 25% of 20 contents = 5 hot contents (ids 0..4 by construction).
	for k := 0; k < 5; k++ {
		x, err := p.Rate(0, k, 0, 5, 50)
		if err != nil {
			t.Fatal(err)
		}
		if x != 1 {
			t.Errorf("hot content %d should be cached at full rate, got %g", k, x)
		}
	}
	for k := 5; k < ctx.Params.K; k++ {
		x, err := p.Rate(0, k, 0, 5, 50)
		if err != nil {
			t.Fatal(err)
		}
		if x != 0 {
			t.Errorf("cold content %d should not be cached, got %g", k, x)
		}
	}
	// Fully cached (q within the 2% hysteresis of 0) stops caching.
	if x, _ := p.Rate(0, 0, 0, 5, 0.015*ctx.Params.Qk); x != 0 {
		t.Error("MPC should stop caching once the whole content is stored")
	}
	if x, _ := p.Rate(0, 0, 0, 5, 0); x != 0 {
		t.Error("MPC should stop caching when no space remains")
	}
}

func TestUDCSShape(t *testing.T) {
	ctx := testContext(t, 5)
	p := NewUDCS()
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	// More remaining space ⇒ more delay pressure ⇒ caches at least as much.
	lo, err := p.Rate(0, 0, 0, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := p.Rate(0, 0, 0, 5, 90)
	if err != nil {
		t.Fatal(err)
	}
	if hi < lo {
		t.Errorf("UDCS rate should not decrease with remaining space: %g vs %g", lo, hi)
	}
	// Rate decays toward the horizon (less future to save).
	early, _ := p.Rate(0, 0, 0, 5, 90)
	late, _ := p.Rate(0, 0, 0.95, 5, 90)
	if late > early {
		t.Errorf("UDCS rate should decay in time: %g vs %g", early, late)
	}
	// The long-run horizon keeps a baseline caching value even at the end
	// of the current epoch (UDCS minimises the long-run average cost).
	end, _ := p.Rate(0, 0, 1, 5, 90)
	if end <= 0 {
		t.Errorf("UDCS long-run saving should persist at the epoch end, got %g", end)
	}
	if end > early {
		t.Errorf("epoch-end rate %g should not exceed the initial rate %g", end, early)
	}
	// Unrequested content is not cached.
	ctx.Workloads[2].Requests = 0
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if x, _ := p.Rate(0, 2, 0, 5, 90); x != 0 {
		t.Error("UDCS cached an unrequested content")
	}
}

func TestPrepareRejectsInvalidContext(t *testing.T) {
	bad := testContext(t, 5)
	bad.M = 0
	for _, p := range []Policy{NewMFGCP(), NewRR(), NewMPC(), NewUDCS()} {
		if err := p.Prepare(bad); err == nil {
			t.Errorf("%s accepted an invalid context", p.Name())
		}
	}
}

func TestMFGCPWarmStartAcrossEpochs(t *testing.T) {
	ctx := testContext(t, 4)
	p := NewMFGCP()
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	eq0, err := p.Equilibrium(0)
	if err != nil || eq0 == nil {
		t.Fatalf("first epoch produced no equilibrium: %v", err)
	}
	coldIters := eq0.Iterations

	// Second epoch with slightly drifted demand warm-starts from the first.
	ctx.Epoch = 1
	ctx.Workloads[0].Requests *= 1.05
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	eq1, err := p.Equilibrium(0)
	if err != nil || eq1 == nil {
		t.Fatalf("second epoch produced no equilibrium: %v", err)
	}
	if eq1.Iterations >= coldIters {
		t.Errorf("warm-started epoch used %d iterations, cold used %d", eq1.Iterations, coldIters)
	}

	// Disabling the warm start restores the cold behaviour.
	pCold := NewMFGCP()
	pCold.DisableWarmStart = true
	if err := pCold.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	eqCold, err := pCold.Equilibrium(0)
	if err != nil || eqCold == nil {
		t.Fatal("cold policy produced no equilibrium")
	}
	if eqCold.Iterations <= eq1.Iterations {
		t.Errorf("cold solve should need more iterations: %d vs %d", eqCold.Iterations, eq1.Iterations)
	}
}

func TestMFGCPCapacityBudget(t *testing.T) {
	ctx := testContext(t, 4)

	unlimited := NewMFGCP()
	if err := unlimited.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	// Sum the expected space consumption to pick a tight budget.
	var totalWeight float64
	for k := 0; k < ctx.Params.K; k++ {
		eq, err := unlimited.Equilibrium(k)
		if err != nil {
			t.Fatal(err)
		}
		if eq == nil {
			continue
		}
		dt := eq.Time.Dt()
		for n := range eq.Snapshots {
			totalWeight += ctx.Params.Qk * ctx.Params.W1 * eq.Snapshots[n].MeanControl * dt
		}
	}
	if totalWeight <= 0 {
		t.Fatal("no space demand measured")
	}

	capped := NewMFGCP()
	capped.Capacity = totalWeight / 2
	capped.CapacityPaths = 4
	if err := capped.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	// Admission fractions in [0,1], some strictly below 1 under the tight
	// budget, and every rate scales accordingly.
	var below int
	for k := 0; k < ctx.Params.K; k++ {
		f, err := capped.Admission(k)
		if err != nil {
			t.Fatal(err)
		}
		if f < 0 || f > 1 {
			t.Fatalf("admission[%d] = %g outside [0,1]", k, f)
		}
		if f < 1-1e-9 {
			below++
		}
		full, err := unlimited.Rate(0, k, 0.2, 5, 60)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := capped.Rate(0, k, 0.2, 5, 60)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(scaled-f*full) > 1e-9 {
			t.Fatalf("content %d: rate %g, want %g·%g", k, scaled, f, full)
		}
	}
	if below == 0 {
		t.Error("a budget of half the demand should exclude some content mass")
	}
	// Unlimited policy reports full admission.
	if f, err := unlimited.Admission(0); err != nil || f != 1 {
		t.Errorf("unlimited admission = %g (%v), want 1", f, err)
	}
	if _, err := capped.Admission(-1); err == nil {
		t.Error("bad index should error")
	}
}

// A frozen MFG-CP strategy keeps answering with the epoch it was taken from
// while later Prepare calls replace the live one: the view the simulator
// trades on while the next epoch prepares.
func TestMFGCPFreezeSurvivesNextPrepare(t *testing.T) {
	ctx := testContext(t, 4)
	p := NewMFGCP()
	p.Capacity = 1.5 // admissions too, so both slices the view holds are exercised
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	frozen := p.Freeze()
	type state struct{ h, q float64 }
	probes := []state{{3, 10}, {5, 40}, {8, 70}}
	want := make([]float64, 0, len(probes)*ctx.Params.K)
	for k := 0; k < ctx.Params.K; k++ {
		for _, s := range probes {
			x, err := p.Rate(0, k, 0.5, s.h, s.q)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, x)
		}
	}

	// The next epoch: contents 0 and 1 lose their demand, the rest shift.
	ctx.Epoch = 1
	ctx.Workloads[0].Requests, ctx.Workloads[1].Requests = 0, 0
	for k := 2; k < ctx.Params.K; k++ {
		ctx.Workloads[k].Requests *= 3
	}
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if live, _ := p.Rate(0, 0, 0.5, 3, 10); live != 0 {
		t.Fatalf("content 0 lost its demand but the live strategy still caches it at %v", live)
	}
	i := 0
	for k := 0; k < ctx.Params.K; k++ {
		for _, s := range probes {
			got, err := frozen.Rate(0, k, 0.5, s.h, s.q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("content %d at %+v: frozen view reads %v after the next Prepare, %v before", k, s, got, want[i])
			}
			i++
		}
	}
	if frozen.SharingEnabled() != p.SharingEnabled() || NewMFG().Freeze().SharingEnabled() {
		t.Error("a frozen view must keep its policy's sharing mode")
	}
}
