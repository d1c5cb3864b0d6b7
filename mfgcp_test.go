package mfgcp_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	mfgcp "repro"
)

// The public facade is exercised end-to-end: parameters → equilibrium →
// strategy/price/rollout → market comparison, exactly like the README's
// quick-start flow.
func TestPublicAPIQuickstart(t *testing.T) {
	params := mfgcp.DefaultParams()
	if err := params.Validate(); err != nil {
		t.Fatalf("default params: %v", err)
	}
	cfg := mfgcp.DefaultSolverConfig(params)
	cfg.NH, cfg.NQ, cfg.Steps = 5, 21, 30

	eq, err := mfgcp.SolveEquilibrium(cfg, mfgcp.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
	if err != nil {
		t.Fatalf("SolveEquilibrium: %v", err)
	}
	if !eq.Converged {
		t.Fatal("equilibrium did not converge")
	}
	x, err := eq.HJB.ControlAt(0, params.ChMean, 50)
	if err != nil {
		t.Fatal(err)
	}
	if x < 0 || x > 1 {
		t.Fatalf("control %g outside [0,1]", x)
	}
	s := eq.SnapshotAt(0.5)
	if s.Price <= 0 || s.Price > params.PHat {
		t.Fatalf("price %g outside (0, p̂]", s.Price)
	}
	roll, err := eq.EnsembleRollout(params.ChMean, 70, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if u, _ := roll.Final(); math.IsNaN(u) {
		t.Fatal("rollout utility is NaN")
	}
}

func TestPublicAPIPaperParams(t *testing.T) {
	if err := mfgcp.PaperParams().Validate(); err != nil {
		t.Fatalf("paper params: %v", err)
	}
}

func TestPublicAPIOptimalControl(t *testing.T) {
	p := mfgcp.DefaultParams()
	if got := mfgcp.OptimalControl(p, -1e12); got != 1 {
		t.Errorf("control should clamp to 1, got %g", got)
	}
	if got := mfgcp.OptimalControl(p, 1e12); got != 0 {
		t.Errorf("control should clamp to 0, got %g", got)
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	names := map[string]bool{}
	for _, pol := range []mfgcp.Policy{
		mfgcp.NewMFGCPPolicy(), mfgcp.NewMFGPolicy(), mfgcp.NewRRPolicy(),
		mfgcp.NewMPCPolicy(), mfgcp.NewUDCSPolicy(),
	} {
		names[pol.Name()] = true
	}
	for _, want := range []string{"MFG-CP", "MFG", "RR", "MPC", "UDCS"} {
		if !names[want] {
			t.Errorf("policy %q missing from the public API", want)
		}
	}
}

func TestPublicAPIMarket(t *testing.T) {
	params := mfgcp.DefaultParams()
	params.M = 10
	params.K = 3
	cfg := mfgcp.DefaultMarketConfig(params, mfgcp.NewRRPolicy())
	cfg.Epochs = 1
	cfg.StepsPerEpoch = 10
	res, err := mfgcp.RunMarketContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunMarketContext: %v", err)
	}
	if len(res.Ledgers) != 10 {
		t.Fatalf("expected 10 ledgers, got %d", len(res.Ledgers))
	}
	l := res.MeanLedger()
	wantU := l.Trading + l.Sharing - l.Placement - l.Staleness - l.ShareCost
	if math.Abs(res.MeanUtility()-wantU) > 1e-9 {
		t.Error("MeanUtility disagrees with the ledger identity")
	}
}

func TestPublicAPITrace(t *testing.T) {
	cfg := mfgcp.DefaultTraceGenConfig()
	cfg.Days = 2
	cfg.VideosPerDay = 10
	ds, err := mfgcp.GenerateTrace(cfg)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	if ds.K != cfg.K {
		t.Errorf("trace has %d categories, want %d", ds.K, cfg.K)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := mfgcp.ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("expected 16 experiments, got %d: %v", len(ids), ids)
	}
	rep, err := mfgcp.RunExperiment("fig3", mfgcp.ExperimentOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig3") {
		t.Error("render missing experiment id")
	}
	if _, err := mfgcp.RunExperiment("nope", mfgcp.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestPublicAPIKnapsack(t *testing.T) {
	items := []mfgcp.KnapsackItem{
		{Content: 0, Weight: 4, Value: 8},
		{Content: 1, Weight: 6, Value: 6},
	}
	frac, err := mfgcp.AllocateFractional(items, 7)
	if err != nil {
		t.Fatal(err)
	}
	if frac[0] != 1 || math.Abs(frac[1]-0.5) > 1e-12 {
		t.Errorf("fractional allocation wrong: %v", frac)
	}
	take, val, err := mfgcp.Allocate01(items, 7, 700)
	if err != nil {
		t.Fatal(err)
	}
	if !take[0] || take[1] || val != 8 {
		t.Errorf("0/1 allocation wrong: take=%v val=%g", take, val)
	}
}

func TestPublicAPIExactGame(t *testing.T) {
	params := mfgcp.DefaultParams()
	cfg := mfgcp.DefaultExactGameConfig(params)
	cfg.NH, cfg.NQ, cfg.Steps = 5, 21, 30
	sol, err := mfgcp.SolveExactGame(cfg,
		mfgcp.Workload{Requests: 10, Pop: 0.3, Timeliness: 2},
		[]mfgcp.ExactGameAgentInit{{MeanQ: 70, StdQ: 10}, {MeanQ: 50, StdQ: 10}},
	)
	if err != nil {
		t.Fatalf("SolveExactGame: %v", err)
	}
	if len(sol.Agents) != 2 {
		t.Fatalf("expected 2 agents, got %d", len(sol.Agents))
	}
}

func TestPublicAPIEquilibriumArchive(t *testing.T) {
	params := mfgcp.DefaultParams()
	cfg := mfgcp.DefaultSolverConfig(params)
	cfg.NH, cfg.NQ, cfg.Steps = 5, 21, 30
	eq, err := mfgcp.SolveEquilibrium(cfg, mfgcp.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eq.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := mfgcp.ReadEquilibrium(&buf)
	if err != nil {
		t.Fatalf("ReadEquilibrium: %v", err)
	}
	// The archive round-trips into a usable warm start.
	cfg.WarmStart = back
	warm, err := mfgcp.SolveEquilibrium(cfg, mfgcp.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
	if err != nil {
		t.Fatalf("warm solve from archive: %v", err)
	}
	if warm.Iterations >= eq.Iterations {
		t.Errorf("archive warm start used %d iterations, cold used %d", warm.Iterations, eq.Iterations)
	}
}

func TestPublicAPITelemetry(t *testing.T) {
	rec := mfgcp.NewRecorder(nil)
	cfg := mfgcp.DefaultSolverConfig(mfgcp.DefaultParams())
	cfg.NH, cfg.NQ, cfg.Steps = 5, 21, 30
	cfg.Obs = rec
	if _, err := mfgcp.SolveEquilibrium(cfg, mfgcp.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}); err != nil {
		t.Fatalf("SolveEquilibrium: %v", err)
	}
	snap := rec.Snapshot()
	if snap.Counters["core.solver.solves"] != 1 {
		t.Errorf("facade recorder saw no solve: %+v", snap.Counters)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "core.solver.iterations") {
		t.Error("snapshot JSON missing iteration counter")
	}
	// The no-op recorder is exported and inert.
	mfgcp.NopRecorder.Add("x", 1)
	if mfgcp.NopRecorder.Enabled() {
		t.Error("NopRecorder must report disabled")
	}
}
