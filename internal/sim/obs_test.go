package sim

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/trace"
)

// TestRunRecordsTelemetry checks that the market simulation feeds the
// recorder: epoch spans, service-case counters, and income tallies, and that
// the solver inherits the recorder when none is set explicitly.
func TestRunRecordsTelemetry(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg := quickConfig(t, policy.NewMFGCP())
	cfg.Epochs = 2
	cfg.Obs = reg
	// The trace Run would generate, made explicit so the test can count the
	// contents with demand in each epoch.
	gen := trace.DefaultGenConfig()
	gen.K = cfg.Params.K
	gen.Seed = cfg.Seed
	ds, err := trace.Generate(gen)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	cfg.Trace = ds
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := reg.Snapshot()
	if got := s.Counters["sim.epochs"]; got != float64(cfg.Epochs) {
		t.Errorf("sim.epochs = %g, want %d", got, cfg.Epochs)
	}
	// Without faults every active (content, EDP) slot of every step is
	// served by exactly one of the three cases, and serves r·dt requests.
	var slots int
	var requests float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shares, err := ds.DayShares(epoch % ds.Days)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shares {
			if r := cfg.RequestsPerEDP * sh; r > 0 {
				slots += cfg.StepsPerEpoch * cfg.Params.M
				requests += cfg.Params.Horizon * float64(cfg.Params.M) * r
			}
		}
	}
	served := s.Counters["sim.serve.local_hit"] + s.Counters["sim.serve.peer_share"] + s.Counters["sim.serve.cloud_fetch"]
	if slots == 0 || served != float64(slots) {
		t.Errorf("service cases sum to %g, want %d slots: %+v", served, slots, s.Counters)
	}
	if got := s.Counters["sim.requests.served"]; math.Abs(got-requests) > 1e-9*requests {
		t.Errorf("sim.requests.served = %.12g, want %.12g", got, requests)
	}
	if s.Histograms["sim.epoch.seconds"].Count != uint64(cfg.Epochs) {
		t.Errorf("epoch span count = %d, want %d", s.Histograms["sim.epoch.seconds"].Count, cfg.Epochs)
	}
	// The MFG-CP policy solves the mean-field game during Prepare; the solver
	// must have inherited the simulation recorder.
	if s.Counters["core.solver.solves"] <= 0 {
		t.Errorf("solver did not inherit recorder: %+v", s.Counters)
	}
	if len(res.Stats) != cfg.Epochs {
		t.Fatalf("unexpected result shape: %d epochs", len(res.Stats))
	}
}

// TestRunTelemetryNoObserverEffect pins that attaching a recorder leaves the
// seeded simulation byte-for-byte deterministic.
func TestRunTelemetryNoObserverEffect(t *testing.T) {
	plain, err := Run(quickConfig(t, policy.NewMFGCP()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg := quickConfig(t, policy.NewMFGCP())
	cfg.Obs = obs.NewRegistry(nil)
	recorded, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run with recorder: %v", err)
	}
	for i := range plain.Stats {
		if plain.Stats[i].MeanUtility != recorded.Stats[i].MeanUtility {
			t.Errorf("epoch %d mean utility differs: %g vs %g",
				i, plain.Stats[i].MeanUtility, recorded.Stats[i].MeanUtility)
		}
		if plain.Stats[i].MeanPrice != recorded.Stats[i].MeanPrice {
			t.Errorf("epoch %d mean price differs: %g vs %g",
				i, plain.Stats[i].MeanPrice, recorded.Stats[i].MeanPrice)
		}
	}
}
