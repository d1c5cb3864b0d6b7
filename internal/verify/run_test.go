package verify

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunQuickTierPasses is the gate's own gate: the quick tier must pass on
// the calibrated defaults, with every non-full check present in the report.
func TestRunQuickTierPasses(t *testing.T) {
	reg := obs.NewRegistry(nil)
	report, err := Run(context.Background(), Options{Obs: reg})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !report.Passed {
		t.Fatalf("quick tier failed on defaults:\n%s", report.Summary())
	}
	want := []string{
		"invariants/default-config",
		"invariants/property-sweep",
		"eq21/monotone-clamp",
		"differential/scheme-agreement",
		"differential/cache-bit-equality",
		"differential/surrogate",
		"differential/checkpoint-resume",
		"order/fpk-implicit",
	}
	if len(report.Checks) != len(want) {
		t.Fatalf("quick tier ran %d checks, want %d:\n%s", len(report.Checks), len(want), report.Summary())
	}
	for i, name := range want {
		if report.Checks[i].Name != name {
			t.Errorf("check %d is %q, want %q", i, report.Checks[i].Name, name)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["verify.checks"]; got != float64(len(want)) {
		t.Errorf("verify.checks counter = %g, want %d", got, len(want))
	}
	if got := snap.Counters["verify.failures"]; got != 0 {
		t.Errorf("verify.failures counter = %g, want 0", got)
	}
}

// TestRunBrokenToleranceFails is the acceptance check of the gate: a
// tolerance tightened below the schemes' genuine O(dt) gap must fail the
// report (and only the scheme-agreement check).
func TestRunBrokenToleranceFails(t *testing.T) {
	tol := DefaultTolerances()
	tol.SchemeTol = 1e-9
	report, err := Run(context.Background(), Options{Tol: tol})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.Passed {
		t.Fatal("report passed despite a tolerance below the real scheme gap")
	}
	for _, c := range report.Checks {
		wantPass := c.Name != "differential/scheme-agreement"
		if c.Passed != wantPass {
			t.Errorf("check %s passed=%v, want %v:\n%s", c.Name, c.Passed, wantPass, report.Summary())
		}
	}
	if len(report.Violations()) == 0 {
		t.Error("failing report carries no violations")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(context.Background(), Options{Tier: "nightly"}); err == nil {
		t.Error("unknown tier must error")
	}
	bad := DefaultTolerances()
	bad.ResidualGrowth = 0.5
	if _, err := Run(context.Background(), Options{Tol: bad}); err == nil {
		t.Error("invalid tolerances must error")
	}
	badTol := DefaultTolerances()
	badTol.MassTol = -1
	if err := badTol.Validate(); err == nil {
		t.Error("negative tolerance must fail validation")
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Options{}); err == nil {
		t.Error("cancelled context must abort the run")
	}
}

func TestReportRendering(t *testing.T) {
	report, err := Run(context.Background(), Options{Cases: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	summary := report.Summary()
	if !strings.Contains(summary, "verify quick: PASSED") {
		t.Errorf("summary missing verdict line:\n%s", summary)
	}
	data, err := report.MarshalIndent()
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	var decoded Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if decoded.Passed != report.Passed || len(decoded.Checks) != len(report.Checks) {
		t.Error("decoded report disagrees with the original")
	}
}
