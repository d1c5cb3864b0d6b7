package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

var body = [][]byte{[]byte(`{"Workload": {"Requests": 10, "Pop": 0.2, "Timeliness": 3}}`)}

// TestRunClassification drives a handler that answers a fixed status cycle
// and pins the response taxonomy: 2xx → succeeded (and only those feed the
// latency histogram), 429 → shed, everything else → errors.
func TestRunClassification(t *testing.T) {
	var n atomic.Int64
	statuses := []int{200, 200, 429, 500}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if r.Header.Get("X-Request-ID") == "" {
			t.Error("loadgen request missing X-Request-ID")
		}
		w.WriteHeader(statuses[int(n.Add(1)-1)%len(statuses)])
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Targets:  []string{srv.URL},
		RPS:      200,
		Duration: 250 * time.Millisecond,
		Bodies:   body,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if rep.Succeeded == 0 || rep.Shed == 0 || rep.Errors == 0 {
		t.Errorf("classification incomplete: %+v", rep)
	}
	if rep.Timeouts != 0 {
		t.Errorf("unexpected timeouts: %d", rep.Timeouts)
	}
	if got := rep.Succeeded + rep.Shed + rep.Errors + rep.Dropped; got != rep.Sent {
		t.Errorf("outcome counts %d do not account for %d sent", got, rep.Sent)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Errorf("implausible latency summary: %+v", rep.Latency)
	}
	if rep.ShedRate <= 0 || rep.ErrorRate <= 0 {
		t.Errorf("rates not derived: shed=%g err=%g", rep.ShedRate, rep.ErrorRate)
	}
}

// TestRunTimeoutClassification pins that a client deadline counts as a
// timeout, not an error.
func TestRunTimeoutClassification(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer func() { close(release); srv.Close() }()

	rep, err := Run(context.Background(), Config{
		Targets:  []string{srv.URL},
		RPS:      100,
		Duration: 150 * time.Millisecond,
		Timeout:  20 * time.Millisecond,
		Bodies:   body,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeouts == 0 {
		t.Errorf("no timeouts recorded: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Errorf("deadline misclassified as error: %+v", rep)
	}
	if rep.TimeoutRate <= 0 {
		t.Errorf("timeout rate not derived: %g", rep.TimeoutRate)
	}
}

// TestSLOVerdict pins the pass/fail gate: a generous SLO passes, an
// unattainable latency bound fails with a violation naming the quantile, and
// a strict no-errors bound fails against a 500-only server.
func TestSLOVerdict(t *testing.T) {
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ok.Close()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer broken.Close()
	base := Config{RPS: 100, Duration: 150 * time.Millisecond, Bodies: body}

	cfg := base
	cfg.Targets = []string{ok.URL}
	cfg.SLO = SLO{P99Ms: 60_000, MaxErrorRate: 0.5, MaxShedRate: 0.5, MaxTimeoutRate: 0.5}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || len(rep.Violations) != 0 {
		t.Errorf("generous SLO failed: %v", rep.Violations)
	}

	cfg.SLO = SLO{P99Ms: 1e-9}
	rep, err = Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || len(rep.Violations) == 0 {
		t.Fatalf("unattainable p99 SLO passed: %+v", rep)
	}

	cfg = base
	cfg.Targets = []string{broken.URL}
	cfg.SLO = SLO{MaxErrorRate: 0}
	rep, err = Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Errorf("all-errors run passed a zero-error SLO: %+v", rep)
	}
	// Unchecked sentinel: the same broken server passes when no bound is set.
	cfg.SLO = SLO{MaxErrorRate: Unchecked}
	rep, err = Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("unchecked SLO produced violations: %v", rep.Violations)
	}
}

// TestReportJSONShape pins the report's wire contract consumed by CI and the
// README walkthrough.
func TestReportJSONShape(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		Targets: []string{srv.URL}, RPS: 100, Duration: 100 * time.Millisecond, Bodies: body,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"target", "sent", "shed_rate", "error_rate", "timeout_rate", "latency_ms", "pass"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	lat, ok := doc["latency_ms"].(map[string]any)
	if !ok {
		t.Fatalf("latency_ms is %T", doc["latency_ms"])
	}
	for _, q := range []string{"p50", "p99", "p999"} {
		if _, ok := lat[q]; !ok {
			t.Errorf("latency summary missing %q", q)
		}
	}
}

// TestRunValidation pins the harness-failure contract.
func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Bodies: body}); err == nil {
		t.Error("missing target accepted")
	}
	if _, err := Run(context.Background(), Config{Targets: []string{"http://127.0.0.1:1"}}); err == nil {
		t.Error("missing bodies accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Targets: []string{"http://127.0.0.1:1"}, Bodies: body}); err == nil {
		t.Error("pre-cancelled context produced a report")
	}
}

// TestValidateCorrupt200s drives the corruption detector: a server answering
// 200 with garbage bytes must be counted in Corrupt200s and fail the run
// unconditionally, while a well-formed summary passes.
func TestValidateCorrupt200s(t *testing.T) {
	good := []byte(`{"converged": true, "time": [0, 1], "price": [2, 3], "source": "solve"}`)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			w.Write([]byte("\x00\xffgarbage that is not JSON"))
			return
		}
		w.Write(good)
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Targets:  []string{srv.URL},
		RPS:      200,
		Duration: 200 * time.Millisecond,
		Bodies:   body,
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt200s == 0 {
		t.Fatalf("garbage 200s not detected: %+v", rep)
	}
	if rep.Pass {
		t.Errorf("run with %d corrupt 200s passed", rep.Corrupt200s)
	}

	clean := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(good)
	}))
	defer clean.Close()
	rep, err = Run(context.Background(), Config{
		Targets: []string{clean.URL}, RPS: 100, Duration: 100 * time.Millisecond, Bodies: body, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt200s != 0 || !rep.Pass {
		t.Errorf("clean bodies flagged: corrupt=%d pass=%v %v", rep.Corrupt200s, rep.Pass, rep.Violations)
	}

	// Shape violations count too, not just broken JSON.
	for _, bad := range []string{
		`{"time": [0], "price": [1]}`,                                         // missing converged
		`{"converged": false, "time": [0, 1], "price": [1]}`,                  // length mismatch
		`{"converged": true, "time": [0], "price": [1], "source": "psychic"}`, // unknown provenance
		`{"converged": true, "time": [0], "price": [1]}`,                      // no provenance
	} {
		if validateSolveBody([]byte(bad)) == nil {
			t.Errorf("validateSolveBody accepted %s", bad)
		}
	}
	// Every real ladder source passes.
	for _, src := range []string{"surrogate", "cache", "store", "peer", "coalesced", "solve"} {
		ok := fmt.Sprintf(`{"converged": true, "time": [0], "price": [1], "source": %q}`, src)
		if err := validateSolveBody([]byte(ok)); err != nil {
			t.Errorf("validateSolveBody rejected source %q: %v", src, err)
		}
	}
}

// TestScrapeServerCounters pins the metrics scrape: the report carries the
// daemon-side counter deltas of the window, including the warm-hit rate the
// chaos gate asserts on.
func TestScrapeServerCounters(t *testing.T) {
	metrics := []string{
		// Scrape 1: the daemon has history already — deltas must subtract it.
		"# TYPE serve_solve_requests_total counter\nserve_solve_requests_total 100\n" +
			"serve_solve_source_cache_total 40\nserve_solve_source_store_total 10\nserve_solve_executed_total 50\n" +
			"serve_solve_source_surrogate_total 5\n" +
			"serve_solve_source_peer_total 2\ncluster_peer_miss_total 1\ncluster_owned_total 10\ncluster_forwarded_total 5\n" +
			"store_corrupt_total_total 1\nbreaker_open_total 2\nserve_breaker_rejected_total 5\n" +
			// The rung lookup counters also count lookups that answered peer
			// fills; the report must not read them.
			"engine_cache_hit_total 900\nstore_hit_total 900\ncluster_peer_hit_total 900\nserve_surrogate_hit_total 900\n",
		// Scrape 2, after the window.
		"serve_solve_requests_total 200\nserve_solve_source_cache_total 80\nserve_solve_source_store_total 20\n" +
			"serve_solve_executed_total 70\nserve_solve_source_surrogate_total 30\n" +
			"serve_solve_source_peer_total 7\ncluster_peer_miss_total 2\ncluster_owned_total 30\ncluster_forwarded_total 10\n" +
			"store_corrupt_total_total 1\nbreaker_open_total 3\n" +
			"serve_breaker_rejected_total 5\n" +
			"engine_cache_hit_total 999\nstore_hit_total 999\ncluster_peer_hit_total 999\nserve_surrogate_hit_total 999\n",
	}
	var scrapes atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			i := scrapes.Add(1) - 1
			if i > 1 {
				i = 1
			}
			w.Write([]byte(metrics[i]))
			return
		}
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Targets:       []string{srv.URL},
		RPS:           100,
		Duration:      100 * time.Millisecond,
		Bodies:        body,
		ScrapeMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := rep.Server
	if sc == nil {
		t.Fatal("ScrapeMetrics produced no server counters")
	}
	// The warm-hit-rate numerator counts EVERY warm tier — surrogate (25),
	// LRU (40), store (10) and peer fills (5) — over 100 requests: 0.8. The
	// pre-fleet formula counted only LRU/store and would report 0.5 here.
	want := ServerCounters{
		SurrogateHits: 25, CacheHits: 40, StoreHits: 10, SolveRequests: 100, SolvesExecuted: 20,
		PeerHits: 5, PeerMisses: 1, Owned: 20, Forwarded: 5,
		StoreCorrupt: 0, BreakerOpens: 1, BreakerRejected: 0,
		SurrogateHitRate: 0.25, WarmHitRate: 0.8,
	}
	if *sc != want {
		t.Errorf("server counters = %+v, want %+v", *sc, want)
	}
	raw, _ := json.Marshal(rep)
	var doc map[string]any
	_ = json.Unmarshal(raw, &doc)
	srvDoc, ok := doc["server"].(map[string]any)
	if !ok {
		t.Fatalf("report JSON server section is %T", doc["server"])
	}
	for _, key := range []string{"surrogate_hits", "surrogate_hit_rate", "cache_hits", "store_hits", "peer_hits", "peer_misses", "owned", "forwarded", "warm_hit_rate", "breaker_opens", "store_corrupt"} {
		if _, ok := srvDoc[key]; !ok {
			t.Errorf("server counters JSON missing %q", key)
		}
	}
}

// TestMultiTargetSpray pins the fleet mode: Targets spreads requests over
// every member, and with ScrapeMetrics on the report carries per-replica
// counter deltas plus their fleet-wide aggregate.
func TestMultiTargetSpray(t *testing.T) {
	mkMember := func(requests *atomic.Int64, peerHits int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				fmt.Fprintf(w, "serve_solve_requests_total %d\ncluster_peer_hit_total %d\n", requests.Load(), peerHits)
				return
			}
			requests.Add(1)
		}))
	}
	var nA, nB atomic.Int64
	a := mkMember(&nA, 3)
	defer a.Close()
	b := mkMember(&nB, 4)
	defer b.Close()

	rep, err := Run(context.Background(), Config{
		Targets:       []string{a.URL, b.URL},
		RPS:           200,
		Duration:      300 * time.Millisecond,
		Bodies:        body,
		ScrapeMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nA.Load() == 0 || nB.Load() == 0 {
		t.Errorf("spray skipped a member: a=%d b=%d", nA.Load(), nB.Load())
	}
	if len(rep.Replicas) != 2 {
		t.Fatalf("Replicas has %d entries, want 2: %+v", len(rep.Replicas), rep.Replicas)
	}
	if rep.Replicas[0].Target != a.URL || rep.Replicas[1].Target != b.URL {
		t.Errorf("replica order %q, %q; want target order", rep.Replicas[0].Target, rep.Replicas[1].Target)
	}
	if rep.Server == nil {
		t.Fatal("no aggregate server counters")
	}
	// The fixture metrics are absolute and static between scrapes except
	// serve_solve_requests_total, which grows with the member's own traffic;
	// the aggregate must equal the sum of the per-replica deltas.
	wantAgg := rep.Replicas[0].SolveRequests + rep.Replicas[1].SolveRequests
	if rep.Server.SolveRequests != wantAgg {
		t.Errorf("aggregate SolveRequests = %g, want %g", rep.Server.SolveRequests, wantAgg)
	}
	if rep.Target != a.URL+","+b.URL {
		t.Errorf("report target = %q, want joined member list", rep.Target)
	}
}
