package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/obs"
)

// testConfig returns a server configuration on a deliberately small grid so
// one solve costs milliseconds, with a registry to assert metrics against.
func testConfig(t testing.TB) (Config, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	p := mec.Default()
	solver := engine.DefaultConfig(p)
	solver.NH, solver.NQ, solver.Steps = 7, 15, 24
	return Config{
		Addr:           "127.0.0.1:0",
		Workers:        2,
		QueueDepth:     128,
		DefaultTimeout: 20 * time.Second,
		DrainTimeout:   20 * time.Second,
		Params:         p,
		Solver:         solver,
		Obs:            reg,
		Registry:       reg,
	}, reg
}

func postSolve(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// bodyWithoutSource re-encodes a solve body with its provenance removed: the
// equilibrium series must be identical across ladder rungs even though the
// source field names whichever rung answered. json.Marshal of a map emits
// keys sorted, so two stripped bodies of the same equilibrium compare equal.
func bodyWithoutSource(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decode solve body %q: %v", data, err)
	}
	delete(m, "source")
	delete(m, "error_bound")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sourceOf decodes the body-level provenance of a solve response.
func sourceOf(t *testing.T, data []byte) Source {
	t.Helper()
	var resp SolveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decode solve body %q: %v", data, err)
	}
	return resp.Source
}

// TestSolveCoalescing is the tentpole acceptance check: 64 concurrent
// identical solve requests must produce exactly one engine solve (the rest
// coalesce onto the in-flight computation or hit the cache) and identical
// equilibrium bodies, differing only in their source field.
func TestSolveCoalescing(t *testing.T) {
	cfg, reg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-done })
	base := "http://" + ln.Addr().String()

	const n = 64
	body := `{"Workload": {"Requests": 12, "Pop": 0.25, "Timeliness": 3}}`
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	coalescedHeaders := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postSolve(t, http.DefaultClient, base, body)
			statuses[i] = resp.StatusCode
			bodies[i] = data
			coalescedHeaders[i] = resp.Header.Get("X-Mfgcp-Coalesced")
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodyWithoutSource(t, bodies[i]), bodyWithoutSource(t, bodies[0])) {
			t.Fatalf("request %d: equilibrium differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var resp SolveResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !resp.Converged || len(resp.Price) == 0 || len(resp.Time) != len(resp.Price) {
		t.Errorf("implausible equilibrium summary: %+v", resp)
	}
	// Every response names a real ladder rung, and exactly the expected mix
	// appears: one fresh solve, the rest coalesced joins or cache hits.
	perSource := map[Source]int{}
	for i := 0; i < n; i++ {
		var r SolveResponse
		if err := json.Unmarshal(bodies[i], &r); err != nil {
			t.Fatalf("decode response %d: %v", i, err)
		}
		switch r.Source {
		case SourceSolve, SourceCoalesced, SourceCache:
			perSource[r.Source]++
		default:
			t.Fatalf("request %d: unexpected source %q", i, r.Source)
		}
		// The coalescing header and the body agree on every response.
		if want := strconv.FormatBool(r.Source == SourceCoalesced); coalescedHeaders[i] != want {
			t.Errorf("request %d: X-Mfgcp-Coalesced = %q with source %q, want %q",
				i, coalescedHeaders[i], r.Source, want)
		}
	}
	if perSource[SourceSolve] != 1 {
		t.Errorf("sources %v: want exactly 1 %q", perSource, SourceSolve)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["serve.solve.executed"]; got != 1 {
		t.Errorf("serve.solve.executed = %g, want exactly 1 (coalescing failed)", got)
	}
	if got := snap.Counters["serve.solve.requests"]; got != n {
		t.Errorf("serve.solve.requests = %g, want %d", got, n)
	}
	joined := snap.Counters["serve.solve.coalesced"] + snap.Counters["engine.cache.hit"]
	if joined != n-1 {
		t.Errorf("coalesced+cache hits = %g, want %d", joined, n-1)
	}

	// A warm repeat answers from the cache without re-solving.
	resp2, data2 := postSolve(t, http.DefaultClient, base, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm repeat: status %d", resp2.StatusCode)
	}
	if !bytes.Equal(bodyWithoutSource(t, data2), bodyWithoutSource(t, bodies[0])) {
		t.Errorf("warm repeat equilibrium differs")
	}
	var warm SolveResponse
	if err := json.Unmarshal(data2, &warm); err != nil {
		t.Fatalf("decode warm repeat: %v", err)
	}
	if warm.Source != SourceCache {
		t.Errorf("warm repeat source = %q, want %q", warm.Source, SourceCache)
	}
	if got := reg.Snapshot().Counters["serve.solve.executed"]; got != 1 {
		t.Errorf("warm repeat re-solved: serve.solve.executed = %g", got)
	}
}

// TestLoadShedding fills the queue with no workers draining it and checks the
// overflow request is shed with 429 + Retry-After instead of queuing.
func TestLoadShedding(t *testing.T) {
	cfg, reg := testConfig(t)
	cfg.QueueDepth = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Serve(): the worker pool never starts, so the first enqueued flight
	// sits in the queue deterministically.
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	first := make(chan int, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"TimeoutMs": 200, "Workload": {"Requests": 5, "Pop": 0.1}}`))
		code := 0
		if resp != nil {
			code = resp.StatusCode
			resp.Body.Close()
		}
		first <- code
	}()
	// Wait until the first request occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["serve.solve.requests"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never enqueued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, data := postSolve(t, http.DefaultClient, ts.URL, `{"Workload": {"Requests": 5, "Pop": 0.2}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d body %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Kind != "overloaded" {
		t.Errorf("shed body = %s, want kind overloaded", data)
	}
	if got := reg.Snapshot().Counters["serve.solve.shed"]; got != 1 {
		t.Errorf("serve.solve.shed = %g, want 1", got)
	}
	// The queued request eventually abandons its wait (no workers) and maps
	// onto the interrupted kind.
	if code := <-first; code != http.StatusGatewayTimeout {
		t.Errorf("abandoned queued request: status %d, want 504", code)
	}
}

// TestDeadlineInterrupted maps a per-request deadline expiring mid-solve onto
// the structured 504 "interrupted" error.
func TestDeadlineInterrupted(t *testing.T) {
	cfg, _ := testConfig(t)
	// A grid large enough that one best-response iteration costs well over
	// the 1 ms deadline, and a tolerance it cannot reach.
	cfg.Solver.NH, cfg.Solver.NQ, cfg.Solver.Steps = 21, 81, 200
	cfg.Solver.Tol = 1e-12
	cfg.MaxTimeout = time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-done })

	resp, data := postSolve(t, http.DefaultClient, "http://"+ln.Addr().String(),
		`{"TimeoutMs": 60000, "Workload": {"Requests": 40, "Pop": 0.8, "Timeliness": 4}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %s, want 504", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("decode error body: %v (%s)", err, data)
	}
	if eb.Error.Kind != "interrupted" {
		t.Errorf("error kind %q, want interrupted (%s)", eb.Error.Kind, data)
	}
}

// TestGracefulDrain cancels the serve context (the SIGTERM path) while a
// solve is in flight and checks the request still completes and Serve returns
// nil — the exit-0 contract of `mfgcp serve`.
func TestGracefulDrain(t *testing.T) {
	cfg, reg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		code int
		body []byte
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/solve", "application/json",
			strings.NewReader(`{"Workload": {"Requests": 9, "Pop": 0.3, "Timeliness": 2}}`))
		if err != nil {
			resCh <- result{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		resCh <- result{resp.StatusCode, data}
	}()
	// Wait until the solve is actually executing, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["serve.solve.executed"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()

	res := <-resCh
	if res.code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d body %s, want 200", res.code, res.body)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(cfg.DrainTimeout + 5*time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Errorf("listener still accepting after drain")
	}
	if got := reg.Snapshot().Counters["serve.drains"]; got != 1 {
		t.Errorf("serve.drains = %g, want 1", got)
	}
}

// TestDrainClosesSilentConnection pins that a connection that never sends a
// request does not hold up the drain: http.Server.Shutdown alone waits 5 s
// for one before it closes it.
func TestDrainClosesSilentConnection(t *testing.T) {
	cfg, _ := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The listener accepts in order, so once a request dialled later is
	// answered, the silent connection has been accepted too.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("drain took %v with a silent connection open, want under 1s", d)
	}
}

// TestNewReconcilesParams pins that Params and Solver.Params name one set of
// defaults: a zero Params takes a set Solver's, and two different values fail
// New instead of one silently replacing the other.
func TestNewReconcilesParams(t *testing.T) {
	p := mec.Default()
	p.Eta1 = 7
	solver := engine.DefaultConfig(p)
	s, err := New(Config{Solver: solver})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, _, err := engine.Request{}.Resolve(s.cfg.Solver)
	if err != nil || got.Params != p || s.cfg.Params != p {
		t.Errorf("Solver.Params.Eta1 = 7 resolved to Eta1 %g (daemon Params Eta1 %g), %v",
			got.Params.Eta1, s.cfg.Params.Eta1, err)
	}
	// The same value twice, as `mfgcp serve` passes it, is one setting.
	if s, err := New(Config{Params: p, Solver: solver}); err != nil {
		t.Errorf("equal Params and Solver.Params: %v", err)
	} else {
		s.Close()
	}
	if _, err := New(Config{Params: mec.Default(), Solver: solver}); err == nil ||
		!strings.Contains(err.Error(), "Params and Solver.Params") {
		t.Errorf("differing Params and Solver.Params: New error %v, want one naming both", err)
	}
}

// TestRequestValidation drives the 400 path: unknown top-level keys, unknown
// solver keys and non-finite-rejecting workload validation.
func TestRequestValidation(t *testing.T) {
	cfg, _ := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		name, body, want string
	}{
		{"unknown top-level key", `{"Grid": 5}`, "unknown field"},
		{"unknown solver key", `{"Solver": {"Damp": 0.5}}`, "unknown field"},
		{"retired solver kernel block", `{"Solver": {"Kernel": {"Workers": 2}}}`, "unknown field"},
		{"retired solver stepping", `{"Solver": {"Stepping": 1}}`, `unknown field "Stepping"`},
		{"invalid solver value", `{"Solver": {"Tol": -1}}`, "Tol"},
		{"invalid params", `{"Params": {"Qk": -3}}`, "Qk"},
		{"invalid workload", `{"Workload": {"Pop": 1.7}}`, "popularity"},
	}
	for _, tc := range cases {
		resp, data := postSolve(t, http.DefaultClient, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Kind != "invalid_request" {
			t.Errorf("%s: body %s, want kind invalid_request", tc.name, data)
		}
		if !strings.Contains(eb.Error.Message, tc.want) {
			t.Errorf("%s: message %q does not mention %q", tc.name, eb.Error.Message, tc.want)
		}
	}
}

// TestBlowupResidualKeysAnswers pins that a non-default BlowupResidual, which
// decides whether a request gets an answer at all, is part of the answer's
// identity: a request that diverges under a tight threshold keeps diverging
// after the same workload has been solved under the default one, instead of
// being answered from that solve's cache entry. One worker runs both
// thresholds back to back on the daemon's session pool, which is keyed the
// same way, so the default request must not inherit the tight threshold
// either.
func TestBlowupResidualKeysAnswers(t *testing.T) {
	cfg, _ := testConfig(t)
	cfg.Workers = 1
	base, _ := startDaemon(t, cfg)
	const (
		tight = `{"Solver":{"NH":5,"NQ":11,"Steps":12,"BlowupResidual":0.05},"Workload":{"Requests":10,"Pop":0.3,"Timeliness":2}}`
		plain = `{"Solver":{"NH":5,"NQ":11,"Steps":12},"Workload":{"Requests":10,"Pop":0.3,"Timeliness":2}}`
	)
	for i, step := range []struct {
		body   string
		status int
		source Source
	}{
		{tight, http.StatusUnprocessableEntity, ""},
		{plain, http.StatusOK, SourceSolve},
		{tight, http.StatusUnprocessableEntity, ""},
		{plain, http.StatusOK, SourceCache},
	} {
		resp, data := postSolve(t, http.DefaultClient, base, step.body)
		if resp.StatusCode != step.status {
			t.Fatalf("step %d: status %d, want %d (%s)", i, resp.StatusCode, step.status, data)
		}
		if step.source != "" && sourceOf(t, data) != step.source {
			t.Errorf("step %d: source %q, want %q", i, sourceOf(t, data), step.source)
		}
	}
}

// TestEpochEndpoint prepares one epoch through the daemon and checks the
// per-content strategies and the cache sharing with /v1/solve.
func TestEpochEndpoint(t *testing.T) {
	cfg, reg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-done })
	base := "http://" + ln.Addr().String()

	k := 4
	var workloads []string
	for i := 0; i < k; i++ {
		req := 0.0
		if i < 2 {
			req = float64(5 + i) // only the first two contents are requested
		}
		workloads = append(workloads, fmt.Sprintf(`{"Requests": %g, "Pop": %g, "Timeliness": 2}`, req, 0.1+0.1*float64(i)))
	}
	body := fmt.Sprintf(`{"Params": {"K": %d, "M": 50}, "Workloads": [%s], "Epoch": 1, "Seed": 7}`,
		k, strings.Join(workloads, ","))
	resp, data := postSolve2(t, base+"/v1/policy/epoch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch: status %d body %s", resp.StatusCode, data)
	}
	var er EpochResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("decode epoch response: %v", err)
	}
	if er.Policy != "MFG-CP" || len(er.Contents) != k {
		t.Fatalf("epoch response %+v", er)
	}
	for i, c := range er.Contents {
		wantRequested := i < 2
		if c.Requested != wantRequested {
			t.Errorf("content %d: requested %v, want %v", i, c.Requested, wantRequested)
		}
		if wantRequested && !c.Converged {
			t.Errorf("content %d: did not converge", i)
		}
	}
	if got := reg.Snapshot().Counters["serve.epoch.executed"]; got != 1 {
		t.Errorf("serve.epoch.executed = %g, want 1", got)
	}
	if s.Cache().Len() == 0 {
		t.Errorf("epoch solves did not populate the shared cache")
	}

	// Workload count mismatch is a 400.
	resp, data = postSolve2(t, base+"/v1/policy/epoch", `{"Workloads": [{"Requests": 1}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short workloads: status %d body %s, want 400", resp.StatusCode, data)
	}
	// Non-MFG policies have no equilibrium strategy to serve.
	resp, data = postSolve2(t, base+"/v1/policy/epoch",
		fmt.Sprintf(`{"Policy": "rr", "Params": {"K": %d}, "Workloads": [%s]}`, k, strings.Join(workloads, ",")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("rr policy: status %d body %s, want 400", resp.StatusCode, data)
	}
}

// TestEpochSharesAnswersWithSolve pins the epoch endpoint's sharing with
// /v1/solve in both directions through the LRU of answers: a content whose
// answer /v1/solve cached takes its row from it without a solve, a content
// the epoch solved answers /v1/solve from the cache, and the epoch body is
// byte-identical to a fresh daemon's.
func TestEpochSharesAnswersWithSolve(t *testing.T) {
	workload := func(i int) string {
		return fmt.Sprintf(`{"Requests": %d, "Pop": %g, "Timeliness": 2}`, 5+i, 0.1+0.1*float64(i))
	}
	epoch := fmt.Sprintf(`{"Params": {"K": 3, "M": 50}, "Workloads": [%s, %s, %s], "Epoch": 1, "Seed": 7}`,
		workload(0), workload(1), workload(2))
	solve := func(i int) string {
		return fmt.Sprintf(`{"Params": {"K": 3, "M": 50}, "Workload": %s}`, workload(i))
	}

	cfg, _ := testConfig(t)
	fresh, _ := startDaemon(t, cfg)
	resp, want := postSolve2(t, fresh+"/v1/policy/epoch", epoch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh epoch: status %d body %s", resp.StatusCode, want)
	}

	cfg, reg := testConfig(t)
	base, _ := startDaemon(t, cfg)
	if resp, data := postSolve(t, http.DefaultClient, base, solve(0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve content 0: status %d body %s", resp.StatusCode, data)
	}
	hits := reg.Snapshot().Counters["engine.cache.hit"]
	resp, got := postSolve2(t, base+"/v1/policy/epoch", epoch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch: status %d body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("epoch body over a cached answer differs from a fresh daemon's:\n%s\nvs\n%s", got, want)
	}
	if n := reg.Snapshot().Counters["engine.cache.hit"] - hits; n != 1 {
		t.Errorf("the epoch hit the cache %g times, want 1 (content 0)", n)
	}
	for i := 0; i < 3; i++ {
		resp, data := postSolve(t, http.DefaultClient, base, solve(i))
		if resp.StatusCode != http.StatusOK || sourceOf(t, data) != SourceCache {
			t.Errorf("solve content %d after the epoch: status %d body %s, want a cache answer", i, resp.StatusCode, data)
		}
	}
	// Epoch contents run on the worker pool like /v1/solve misses: content 0
	// before the epoch, then the epoch's contents 1 and 2.
	if got := reg.Snapshot().Counters["serve.solve.executed"]; got != 3 {
		t.Errorf("serve.solve.executed = %g, want 3 (content 0 before the epoch, 1 and 2 in it)", got)
	}
}

// epochRequest is an epoch body over k requested contents with distinct
// workloads, and solveRequest the /v1/solve body of its content i: the two
// resolve content i to the same key.
func epochRequest(k int) string {
	workloads := make([]string, k)
	for i := range workloads {
		workloads[i] = epochWorkload(i)
	}
	return fmt.Sprintf(`{"Params": {"K": %d, "M": 50}, "Workloads": [%s], "Epoch": 1, "Seed": 7}`, k, strings.Join(workloads, ","))
}

func solveRequest(k, i int) string {
	return fmt.Sprintf(`{"Params": {"K": %d, "M": 50}, "Workload": %s}`, k, epochWorkload(i))
}

func epochWorkload(i int) string {
	return fmt.Sprintf(`{"Requests": %d, "Pop": %g, "Timeliness": 2}`, 5+i, 0.1+0.05*float64(i))
}

// TestEpochCoalescesWithSolve runs an epoch and a /v1/solve of its one
// content at the same time: they share one engine solve, whichever of
// singleflight and the LRU joins them.
func TestEpochCoalescesWithSolve(t *testing.T) {
	cfg, reg := testConfig(t)
	base, _ := startDaemon(t, cfg)
	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for i, req := range []struct{ url, body string }{
		{base + "/v1/policy/epoch", epochRequest(1)},
		{base + "/v1/solve", solveRequest(1, 0)},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(req.url, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Errorf("POST %s: %v", req.url, err)
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	if statuses[0] != http.StatusOK || statuses[1] != http.StatusOK {
		t.Fatalf("epoch and solve statuses %v, want both 200", statuses)
	}
	if got := reg.Snapshot().Counters["core.solver.solves"]; got != 1 {
		t.Errorf("core.solver.solves = %g, want 1", got)
	}
}

// TestEpochAnswersPersist restarts a daemon over the cache directory an epoch
// filled: the restarted daemon answers each epoch content's /v1/solve from
// the store.
func TestEpochAnswersPersist(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := testConfig(t)
	cfg.CacheDir = dir
	base, drain := startDaemon(t, cfg)
	if resp, data := postSolve2(t, base+"/v1/policy/epoch", epochRequest(2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch: status %d body %s", resp.StatusCode, data)
	}
	drain()

	cfg, reg := testConfig(t)
	cfg.CacheDir = dir
	base, _ = startDaemon(t, cfg)
	for i := 0; i < 2; i++ {
		resp, data := postSolve(t, http.DefaultClient, base, solveRequest(2, i))
		if resp.StatusCode != http.StatusOK || sourceOf(t, data) != SourceStore {
			t.Errorf("content %d after the restart: status %d body %s, want a store answer", i, resp.StatusCode, data)
		}
	}
	if got := reg.Snapshot().Counters["serve.solve.executed"]; got != 0 {
		t.Errorf("the restarted daemon solved %g times, want 0", got)
	}
}

// TestEpochBeyondQueueDepth sends an epoch of eight contents to a daemon whose
// queue holds one: the epoch keeps no more contents in flight than the queue
// holds, so it never sheds its own contents.
func TestEpochBeyondQueueDepth(t *testing.T) {
	cfg, _ := testConfig(t)
	cfg.QueueDepth = 1
	base, _ := startDaemon(t, cfg)
	resp, data := postSolve2(t, base+"/v1/policy/epoch", epochRequest(8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch: status %d body %s, want 200", resp.StatusCode, data)
	}
	var er EpochResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	for _, c := range er.Contents {
		if !c.Requested || !c.Converged {
			t.Errorf("content %d: %+v, want requested and converged", c.Content, c)
		}
	}
}

// TestEpochBreakerOpen trips the breaker with one diverging solve: an epoch
// whose contents need fresh solves then fails fast with 503 breaker_open,
// naming its first content.
func TestEpochBreakerOpen(t *testing.T) {
	cfg, _ := testConfig(t)
	cfg.Breaker = BreakerConfig{Failures: 1, OpenFor: time.Minute}
	base, _ := startDaemon(t, cfg)
	resp, data := postSolve(t, http.DefaultClient, base,
		`{"Solver": {"BlowupResidual": 1e-12}, "Workload": {"Requests": 12, "Pop": 0.3, "Timeliness": 2}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("breaker trip solve: status %d body %s, want 422", resp.StatusCode, data)
	}
	resp, data = postSolve2(t, base+"/v1/policy/epoch", epochRequest(3))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("epoch: status %d body %s, want 503 with Retry-After", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Kind != "breaker_open" {
		t.Fatalf("epoch body %s, want kind breaker_open", data)
	}
	if !strings.HasPrefix(eb.Error.Message, "serve: content 0: ") {
		t.Errorf("message %q does not name content 0", eb.Error.Message)
	}
}

// TestSolveAfterStop reaches the ladder after the worker pool stopped, as a
// handler the drain budget outlived does: the miss fails as interrupted
// instead of sending on the closed queue.
func TestSolveAfterStop(t *testing.T) {
	cfg, _ := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.stop()
	_, _, err = s.solve(context.Background(), s.cfg.Solver, engine.Workload{Requests: 5, Pop: 0.2, Timeliness: 2}, time.Second, false, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("solve after stop: err = %v, want context.Canceled", err)
	}
}

func postSolve2(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestHealthEndpoints checks the liveness/readiness split and the metrics
// mount.
func TestHealthEndpoints(t *testing.T) {
	cfg, _ := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
	// Readiness flips only once Serve runs; a bare handler is not ready.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before Serve: %v %v, want 503", resp, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", resp, err)
	}
	resp.Body.Close()
}

// BenchmarkServeHit times one /v1/solve answered from the LRU on the default
// grid, through Server.Handler from request decode to response body with no
// network in between: what every warm repeat costs the daemon.
func BenchmarkServeHit(b *testing.B) {
	reg := obs.NewRegistry(nil)
	s, err := New(Config{Obs: reg, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()
	const body = `{"Workload": {"Requests": 10, "Pop": 0.3, "Timeliness": 2}}`
	// The first request solves and fills the LRU.
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warm-up solve: status %d", resp.StatusCode)
	}
	h := s.Handler()
	var rec *httptest.ResponseRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
	}
	b.StopTimer()
	var sr SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || rec.Code != http.StatusOK || sr.Source != SourceCache {
		b.Fatalf("status %d, source %q, err %v: not an LRU hit", rec.Code, sr.Source, err)
	}
}
