package exactgame

import (
	"errors"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/mec"
)

func testConfig() Config {
	cfg := DefaultConfig(mec.Default())
	cfg.NH = 5
	cfg.NQ = 21
	cfg.Steps = 30
	return cfg
}

func testWorkload() engine.Workload {
	return engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
}

func symmetricInits(m int) []AgentInit {
	inits := make([]AgentInit, m)
	for i := range inits {
		inits[i] = AgentInit{MeanQ: 70, StdQ: 10}
	}
	return inits
}

func TestSolveSymmetricConverges(t *testing.T) {
	sol, err := Solve(testConfig(), testWorkload(), symmetricInits(4))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !sol.Converged {
		t.Fatalf("not converged: residuals %v", sol.Residuals)
	}
	if sol.Solves < 4 {
		t.Errorf("expected at least one solve per agent, got %d", sol.Solves)
	}
	// Symmetric agents end up with matching strategies up to the sequential
	// (Gauss–Seidel) update's tolerance-level phase lag within a round.
	a0 := sol.Agents[0].HJB.X[0]
	for i := 1; i < len(sol.Agents); i++ {
		ai := sol.Agents[i].HJB.X[0]
		for k := range a0 {
			if math.Abs(a0[k]-ai[k]) > 2*testConfig().Tol {
				t.Fatalf("symmetric agents diverged at node %d: %g vs %g", k, a0[k], ai[k])
			}
		}
	}
	// Controls stay admissible.
	for _, a := range sol.Agents {
		for n := range a.HJB.X {
			for k, x := range a.HJB.X[n] {
				if x < 0 || x > 1 {
					t.Fatalf("control %g outside [0,1] at node %d", x, k)
				}
			}
		}
	}
}

func TestSolveHeterogeneousAgentsDiffer(t *testing.T) {
	inits := []AgentInit{
		{MeanQ: 30, StdQ: 8},
		{MeanQ: 80, StdQ: 8},
		{MeanQ: 55, StdQ: 8},
	}
	sol, err := Solve(testConfig(), testWorkload(), inits)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Agents with different initial inventories carry different aggregates.
	if math.Abs(sol.Agents[0].MeanQ[0]-sol.Agents[1].MeanQ[0]) < 10 {
		t.Errorf("initial mean states should differ: %g vs %g",
			sol.Agents[0].MeanQ[0], sol.Agents[1].MeanQ[0])
	}
}

// The nearly-equivalence claim of Section IV-B: for a symmetric population
// the exact finite-M best responses coincide with the MFG-CP strategy (the
// Eq. 5 price has no own-supply term, so a symmetric population's aggregates
// equal the mean field exactly), and heterogeneity is what opens a gap that
// shrinks as the population homogenises.
func TestExactGameMatchesMFG(t *testing.T) {
	cfg := testConfig()
	w := testWorkload()

	mfgCfg := engine.DefaultConfig(cfg.Params)
	mfgCfg.NH, mfgCfg.NQ, mfgCfg.Steps = cfg.NH, cfg.NQ, cfg.Steps
	mfgEq, err := engine.Solve(mfgCfg, w)
	if err != nil {
		t.Fatalf("MFG solve: %v", err)
	}

	gap := func(inits []AgentInit) float64 {
		sol, err := Solve(cfg, w, inits)
		if err != nil {
			t.Fatalf("exact game: %v", err)
		}
		var worst float64
		// Compare at a mid-horizon time where strategies are interior.
		n := cfg.Steps / 2
		for k := range mfgEq.HJB.X[n] {
			if d := math.Abs(sol.Agents[0].HJB.X[n][k] - mfgEq.HJB.X[n][k]); d > worst {
				worst = d
			}
		}
		return worst
	}

	// Symmetric populations coincide with the mean field at any M.
	for _, m := range []int{3, 16} {
		if g := gap(symmetricInits(m)); g > 2*cfg.Tol {
			t.Errorf("symmetric M=%d: gap to MFG %.4f exceeds tolerance", m, g)
		}
	}

	// A heterogeneous population (mean-preserving spread around 70MB) opens
	// a gap; a milder spread closes it again.
	spread := func(delta float64) []AgentInit {
		return []AgentInit{
			{MeanQ: 70 - delta, StdQ: 10},
			{MeanQ: 70 + delta, StdQ: 10},
			{MeanQ: 70 - delta/2, StdQ: 10},
			{MeanQ: 70 + delta/2, StdQ: 10},
		}
	}
	wide := gap(spread(25))
	narrow := gap(spread(5))
	if narrow > wide+1e-9 {
		t.Errorf("gap should shrink as heterogeneity shrinks: wide %.4f vs narrow %.4f", wide, narrow)
	}
}

// Complexity: the number of PDE solves grows linearly in M — the paper's
// O(M·K·ψ) vs O(K·ψ) comparison.
func TestSolveCountGrowsWithM(t *testing.T) {
	runs := map[int]int{}
	for _, m := range []int{3, 6} {
		sol, err := Solve(testConfig(), testWorkload(), symmetricInits(m))
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		runs[m] = sol.Solves
	}
	perAgent3 := float64(runs[3]) / 3
	perAgent6 := float64(runs[6]) / 6
	// Solves per agent per round is 1; round counts should be comparable, so
	// total solves at M=6 must clearly exceed M=3.
	if runs[6] <= runs[3] {
		t.Errorf("solve count should grow with M: %v", runs)
	}
	if perAgent3 < 1 || perAgent6 < 1 {
		t.Errorf("per-agent solve counts out of range: %g, %g", perAgent3, perAgent6)
	}
}

func TestSolveValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := Solve(cfg, testWorkload(), symmetricInits(1)); err == nil {
		t.Error("single agent should be rejected")
	}
	bad := cfg
	bad.NH = 1
	if _, err := Solve(bad, testWorkload(), symmetricInits(3)); err == nil {
		t.Error("tiny grid should be rejected")
	}
	bad = cfg
	bad.Tol = 0
	if _, err := Solve(bad, testWorkload(), symmetricInits(3)); err == nil {
		t.Error("zero tolerance should be rejected")
	}
	bad = cfg
	bad.MaxRounds = 0
	if _, err := Solve(bad, testWorkload(), symmetricInits(3)); err == nil {
		t.Error("zero rounds should be rejected")
	}
	inits := symmetricInits(3)
	inits[1].StdQ = 0
	if _, err := Solve(cfg, testWorkload(), inits); err == nil {
		t.Error("zero init std should be rejected")
	}
	w := testWorkload()
	w.Pop = 2
	if _, err := Solve(cfg, w, symmetricInits(3)); err == nil {
		t.Error("bad workload should be rejected")
	}
}

func TestSolveNotConverged(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRounds = 1
	cfg.Tol = 1e-12
	sol, err := Solve(cfg, testWorkload(), symmetricInits(3))
	if err == nil {
		t.Fatal("expected non-convergence")
	}
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("error %v should wrap ErrNotConverged", err)
	}
	if sol == nil {
		t.Fatal("partial solution should be returned")
	}
}

func TestShareBenefitGuards(t *testing.T) {
	p := mec.Default()
	if got := shareBenefit(p, 50, 0.5, 0); got != 0 {
		t.Errorf("no sharers should give 0, got %g", got)
	}
	if got := shareBenefit(p, 5, 0.99, 0.99); got < 0 {
		t.Errorf("benefit must be non-negative, got %g", got)
	}
	if got := shareBenefit(p, 40, 0.5, 0.1); got <= 0 {
		t.Errorf("healthy market should give positive benefit, got %g", got)
	}
}
