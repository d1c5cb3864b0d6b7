package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// TestMarketConfigJSONRoundTrip checks Marshal → Unmarshal reproduces the
// serialisable market configuration, including the policy (by name), the
// nested solver config and the resilience blocks, and that the runtime-only
// fields neither reach the wire nor are lost by a merge.
func TestMarketConfigJSONRoundTrip(t *testing.T) {
	p := mec.Default()
	p.M, p.K = 12, 4
	pol, err := policy.ByName("mfg-cp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(p, pol)
	cfg.Epochs = 5
	cfg.StepsPerEpoch = 17
	cfg.Seed = 9
	cfg.EqCacheSize = 8
	cfg.ExactInterference = true
	cfg.Requesters = RequesterConfig{J: 30, Speed: 5, RequestsPerRequester: 2, TimelinessNoise: 0.5}
	cfg.Faults = &FaultPlan{Seed: 7, EDPChurn: 0.1, DropShare: 0.2, SolverFail: 0.1, ErrorBudget: 3}
	ladder := resilience.DefaultEscalation()
	cfg.Recovery = &ladder
	cfg.Checkpoint = CheckpointConfig{Dir: "/tmp/ck", Every: 2}
	cfg.Solver.NQ = 21
	cfg.Trace = &trace.Dataset{}
	cfg.Obs = obs.NewRegistry(nil)
	cfg.Context = context.Background()

	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(data, &members); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Trace", "Obs", "Context"} {
		if _, ok := members[name]; ok {
			t.Errorf("runtime field %s reached the wire: %s", name, data)
		}
	}
	merged := cfg
	if err := json.Unmarshal([]byte(`{"Seed": 3}`), &merged); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged.Trace != cfg.Trace || merged.Obs != cfg.Obs || merged.Context != cfg.Context || merged.Seed != 3 {
		t.Errorf("merge lost a runtime field or missed Seed: %+v", merged)
	}
	base := DefaultConfig(mec.Default(), nil)
	got, err := DecodeConfig(data, base)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Policy == nil || got.Policy.Name() != "MFG-CP" {
		t.Fatalf("policy not restored: %v", got.Policy)
	}
	if got.Params != cfg.Params || got.Epochs != cfg.Epochs || got.StepsPerEpoch != cfg.StepsPerEpoch ||
		got.Seed != cfg.Seed || got.EqCacheSize != cfg.EqCacheSize || !got.ExactInterference ||
		got.Requesters != cfg.Requesters || got.Checkpoint != cfg.Checkpoint ||
		got.Solver.NQ != 21 {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, cfg)
	}
	if got.Faults == nil || *got.Faults != *cfg.Faults {
		t.Errorf("fault plan mismatch: %+v", got.Faults)
	}
	if got.Recovery == nil || *got.Recovery != *cfg.Recovery {
		t.Errorf("recovery ladder mismatch: %+v", got.Recovery)
	}
}

// TestMarketConfigJSONMergeAndRejection checks the merge semantics and the
// decoder's rejection paths (unknown keys, unknown policies, invalid values).
func TestMarketConfigJSONMergeAndRejection(t *testing.T) {
	base := DefaultConfig(mec.Default(), policy.NewRR())
	cfg, err := DecodeConfig([]byte(`{"Epochs": 7, "Policy": "udcs"}`), base)
	if err != nil {
		t.Fatalf("merge decode: %v", err)
	}
	if cfg.Epochs != 7 || cfg.Policy.Name() != "UDCS" {
		t.Errorf("overrides not applied: epochs=%d policy=%s", cfg.Epochs, cfg.Policy.Name())
	}
	if cfg.StepsPerEpoch != base.StepsPerEpoch || cfg.Area != base.Area {
		t.Errorf("absent fields did not keep base values: %+v", cfg)
	}
	// Absent policy name keeps the base instance.
	cfg, err = DecodeConfig([]byte(`{"Seed": 3}`), base)
	if err != nil {
		t.Fatalf("merge decode: %v", err)
	}
	if cfg.Policy != base.Policy {
		t.Errorf("absent policy name replaced the instance")
	}

	cases := []struct {
		name, doc, want string
	}{
		{"unknown key", `{"Epoch": 3}`, "unknown field"},
		{"unknown policy", `{"Policy": "lfu"}`, "unknown policy"},
		{"bad epochs", `{"Epochs": 0}`, "Epochs"},
		{"bad solver", `{"Solver": {"Tol": -1}}`, "Tol"},
		{"bad fault plan", `{"Faults": {"EDPChurn": 2}}`, "probability"},
		{"bad requesters", `{"Requesters": {"J": -1}}`, "requester"},
	}
	for _, tc := range cases {
		if _, err := DecodeConfig([]byte(tc.doc), base); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.doc)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A failed decode leaves the receiver as it was, the plans its pointers
	// reach included.
	withPlans := func() Config {
		c := base
		ladder := resilience.DefaultEscalation()
		c.Faults, c.Recovery = &FaultPlan{Seed: 7, EDPChurn: 0.1}, &ladder
		c.Solver.InitLambda = []float64{1, 2, 3}
		return c
	}
	for _, doc := range []string{
		`{"Faults": {"EDPChurn": 0.5}, "Recovery": {"MaxAttempts": 9}, "Epoch": 3}`,
		`{"Seed": 4, "Policy": "lfu"}`,
		`{"Epochs": "7"}`,
		`{"Area": 5, "Solver": {"InitLambda": [9], "Damp": 1}}`,
	} {
		got := withPlans()
		if err := json.Unmarshal([]byte(doc), &got); err == nil {
			t.Errorf("decoded %s", doc)
		}
		if want := withPlans(); !reflect.DeepEqual(got, want) {
			t.Errorf("failed decode of %s changed the receiver:\n got %+v\nwant %+v", doc, got, want)
		}
	}
}
