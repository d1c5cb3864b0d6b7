package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/surrogate"
)

// serveTable precomputes a tiny real lattice under cfg's solver config —
// 2×2 over (Requests, Pop) with Timeliness frozen at 2 — saves it in a test
// directory and names the file in cfg.Solver.Surrogate.Path, the way
// -surrogate hands a daemon its table.
func serveTable(t testing.TB, cfg *Config) *surrogate.Table {
	t.Helper()
	tab, err := surrogate.Build(context.Background(), surrogate.BuildConfig{
		Config:     cfg.Solver,
		Requests:   surrogate.AxisSpec{Min: 8, Max: 12, N: 2},
		Pop:        surrogate.AxisSpec{Min: 0.2, Max: 0.4, N: 2},
		Timeliness: surrogate.AxisSpec{Min: 2, N: 1},
		Workers:    2,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	path := filepath.Join(t.TempDir(), "table.mfgt")
	if err := tab.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	cfg.Solver.Surrogate.Path = path
	return tab
}

// TestSurrogateTierAnswersInRegion pins the tier-0 contract: an in-region
// request is answered from the table — source "surrogate", error bound
// attached, legacy header derived — without the solver pool ever running.
func TestSurrogateTierAnswersInRegion(t *testing.T) {
	cfg, reg := testConfig(t)
	serveTable(t, &cfg)
	base, _ := startDaemon(t, cfg)

	body := `{"Workload": {"Requests": 10, "Pop": 0.3, "Timeliness": 2}}`
	resp, data := postSolve(t, http.DefaultClient, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sr.Source != SourceSurrogate {
		t.Fatalf("source = %q, want %q", sr.Source, SourceSurrogate)
	}
	if sr.ErrorBound <= 0 {
		t.Errorf("error_bound = %g, want positive", sr.ErrorBound)
	}
	if !sr.Converged || len(sr.Price) == 0 || len(sr.Time) != len(sr.Price) {
		t.Errorf("implausible surrogate summary: %+v", sr)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve.solve.executed"]; got != 0 {
		t.Errorf("serve.solve.executed = %g, want 0 (surrogate hit must not solve)", got)
	}
	if got := snap.Counters["serve.surrogate.hit"]; got != 1 {
		t.Errorf("serve.surrogate.hit = %g, want 1", got)
	}
	if got := snap.Counters["serve.solve.requests"]; got != 1 {
		t.Errorf("serve.solve.requests = %g, want 1 (surrogate hits still count requests)", got)
	}
}

// TestSurrogateTierFallsThrough covers the trust-region boundary: an
// out-of-region request (and an in-region one whose request-level
// MaxErrorBound is tighter than the declared cell bound) must reach the
// engine ladder and answer byte-identically to a surrogate-free daemon.
func TestSurrogateTierFallsThrough(t *testing.T) {
	cfg, reg := testConfig(t)
	tab := serveTable(t, &cfg)
	base, _ := startDaemon(t, cfg)

	plain, plainReg := testConfig(t)
	basePlain, _ := startDaemon(t, plain)

	outside := `{"Workload": {"Requests": 20, "Pop": 0.3, "Timeliness": 2}}`
	resp, data := postSolve(t, http.DefaultClient, base, outside)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, data)
	}
	respPlain, dataPlain := postSolve(t, http.DefaultClient, basePlain, outside)
	if respPlain.StatusCode != http.StatusOK {
		t.Fatalf("plain daemon: status %d", respPlain.StatusCode)
	}
	if !bytes.Equal(data, dataPlain) {
		t.Errorf("out-of-region answer differs from the surrogate-free daemon:\n%s\nvs\n%s", data, dataPlain)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sr.Source != SourceSolve {
		t.Errorf("out-of-region source = %q, want %q", sr.Source, SourceSolve)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve.surrogate.miss"]; got != 1 {
		t.Errorf("serve.surrogate.miss = %g, want 1", got)
	}
	if got := snap.Counters["serve.solve.executed"]; got != 1 {
		t.Errorf("serve.solve.executed = %g, want 1", got)
	}
	_ = plainReg

	// In-region, but the request demands a tighter bound than the cell
	// declares: the table must decline and the engine answer.
	tight := fmt.Sprintf(
		`{"Solver": {"Surrogate": {"MaxErrorBound": %g}}, "Workload": {"Requests": 10, "Pop": 0.3, "Timeliness": 2}}`,
		tab.Bounds[0]/2)
	resp2, data2 := postSolve(t, http.DefaultClient, base, tight)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("tight-bound request: status %d body %s", resp2.StatusCode, data2)
	}
	var sr2 SolveResponse
	if err := json.Unmarshal(data2, &sr2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sr2.Source != SourceSolve {
		t.Errorf("tight-bound source = %q, want %q (bound gate failed)", sr2.Source, SourceSolve)
	}
}

// BenchmarkServeSurrogateHit measures the end-to-end latency of a tier-0
// answer through the real HTTP stack (the acceptance criterion is p99 under
// a millisecond; the mean reported here sits far below it). Surrogate hits
// never touch the worker pool, so the bare handler is the full hot path.
func BenchmarkServeSurrogateHit(b *testing.B) {
	cfg, _ := testConfig(b)
	serveTable(b, &cfg)
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := []byte(`{"Workload": {"Requests": 10, "Pop": 0.3, "Timeliness": 2}}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
