package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/surrogate"
)

// startDaemon runs the full daemon (workers + drain path) and returns its
// base URL plus an explicit drain function so tests can restart against the
// same cache directory.
func startDaemon(t *testing.T, cfg Config) (base string, drain func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serveDaemon(t, s)
}

// serveDaemon serves s as startDaemon does, for tests that adjust a server
// between New and Serve.
func serveDaemon(t *testing.T, s *Server) (base string, drain func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	var once bool
	drain = func() {
		if once {
			return
		}
		once = true
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	t.Cleanup(drain)
	return "http://" + ln.Addr().String(), drain
}

// TestStoreTierWarmRestart is the durability contract end to end: a daemon
// solves, drains, and a fresh daemon over the same cache directory answers
// the same request from the disk tier — identical equilibrium, no engine
// solve, source "store" — then promotes it so the next repeat is a memory hit.
func TestStoreTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"Workload": {"Requests": 11, "Pop": 0.35, "Timeliness": 3}}`

	cfg, _ := testConfig(t)
	cfg.CacheDir = dir
	base, drain := startDaemon(t, cfg)
	resp, coldBody := postSolve(t, http.DefaultClient, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: status %d body %s", resp.StatusCode, coldBody)
	}
	if got := sourceOf(t, coldBody); got != SourceSolve {
		t.Fatalf("cold solve source = %q, want %q", got, SourceSolve)
	}
	drain() // flushes the write-behind queue and fsyncs segments

	cfg2, reg2 := testConfig(t)
	cfg2.CacheDir = dir
	base2, _ := startDaemon(t, cfg2)
	resp2, warmBody := postSolve(t, http.DefaultClient, base2, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: status %d body %s", resp2.StatusCode, warmBody)
	}
	var warm SolveResponse
	if err := json.Unmarshal(warmBody, &warm); err != nil {
		t.Fatalf("decode warm body: %v", err)
	}
	if warm.Source != SourceStore {
		t.Errorf("restarted daemon source = %q, want %q", warm.Source, SourceStore)
	}
	if !bytes.Equal(bodyWithoutSource(t, coldBody), bodyWithoutSource(t, warmBody)) {
		t.Errorf("restart changed the equilibrium:\n%s\nvs\n%s", coldBody, warmBody)
	}
	snap := reg2.Snapshot()
	if got := snap.Counters["serve.solve.executed"]; got != 0 {
		t.Errorf("restarted daemon re-solved: serve.solve.executed = %g, want 0", got)
	}
	if got := snap.Counters["store.hit"]; got != 1 {
		t.Errorf("store.hit = %g, want 1", got)
	}

	// The store hit was promoted into the LRU: the repeat is a memory hit.
	resp3, hotBody := postSolve(t, http.DefaultClient, base2, body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("promoted repeat: status %d body %s", resp3.StatusCode, hotBody)
	}
	if got := sourceOf(t, hotBody); got != SourceCache {
		t.Errorf("promoted repeat source = %q, want %q", got, SourceCache)
	}
	if !bytes.Equal(bodyWithoutSource(t, coldBody), bodyWithoutSource(t, hotBody)) {
		t.Errorf("promoted repeat equilibrium differs")
	}
}

// TestStoreTierSupersedesUndecodableRecords: a record whose checksum holds
// but whose blob is not an answer this build decodes — a newer answer
// version, or an equilibrium archive (format v1 or v2) that a build before
// answer records wrote — is a miss, and the re-solve's answer record
// supersedes it on disk, so the next restart answers the key from the store
// instead of solving it again.
func TestStoreTierSupersedesUndecodableRecords(t *testing.T) {
	newer := `{"Workload": {"Requests": 10, "Pop": 0.3, "Timeliness": 2}}`
	v1Stored := `{"Workload": {"Requests": 11, "Pop": 0.35, "Timeliness": 3}}`
	v2Stored := `{"Workload": {"Requests": 9, "Pop": 0.45, "Timeliness": 2}}`
	bodies := []string{newer, v1Stored, v2Stored}
	// v1Archive is the layout every record of the oldest builds has.
	type v1Archive struct {
		Version int
		Eq      *engine.Equilibrium
	}
	cfg, _ := testConfig(t)
	workloadOf := func(body string) engine.Workload {
		var req struct{ Workload engine.Workload }
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		return req.Workload
	}
	keyOf := func(body string) string { return engine.CacheKey(cfg.Solver, workloadOf(body)) }
	solved := func(body string) *engine.Equilibrium {
		eq, err := engine.Solve(cfg.Solver, workloadOf(body))
		if err != nil {
			t.Fatal(err)
		}
		return eq
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(v1Archive{Version: 1, Eq: solved(v1Stored)}); err != nil {
		t.Fatal(err)
	}
	v2, err := engine.MarshalEquilibrium(solved(v2Stored))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(keyOf(newer), []byte(`{"answer":2,"converged":true}`))
	st.Put(keyOf(v1Stored), v1.Bytes())
	st.Put(keyOf(v2Stored), v2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	first := map[string][]byte{}
	n := float64(len(bodies))
	for run, want := range []struct {
		source                             Source
		executed, decodeErrors, duplicates float64
	}{
		{SourceSolve, n, n, 0},
		{SourceStore, 0, 0, 0},
	} {
		cfg, reg := testConfig(t)
		cfg.CacheDir = dir
		base, drain := startDaemon(t, cfg)
		for _, body := range bodies {
			resp, data := postSolve(t, http.DefaultClient, base, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("run %d: status %d body %s", run, resp.StatusCode, data)
			}
			if got := sourceOf(t, data); got != want.source {
				t.Errorf("run %d: %s answered from %q, want %q", run, body, got, want.source)
			}
			if first[body] == nil {
				first[body] = bodyWithoutSource(t, data)
			} else if !bytes.Equal(bodyWithoutSource(t, data), first[body]) {
				t.Errorf("run %d: %s: body differs from the re-solve's", run, body)
			}
		}
		drain()
		snap := reg.Snapshot()
		for _, c := range []struct {
			name string
			want float64
		}{
			{"serve.solve.executed", want.executed},
			{"serve.store.decode.errors", want.decodeErrors},
			{"store.put.duplicate", want.duplicates},
		} {
			if got := snap.Counters[c.name]; got != c.want {
				t.Errorf("run %d: %s = %g, want %g", run, c.name, got, c.want)
			}
		}
	}

	// Each re-solve is persisted as an answer record, not an archive, and it
	// holds the body the re-solve gave.
	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, body := range bodies {
		blob, ok := st2.Get(keyOf(body))
		if !ok {
			t.Fatalf("%s: the re-solve was not persisted", body)
		}
		if _, err := engine.UnmarshalEquilibrium(blob); err == nil {
			t.Errorf("%s: the re-solve's record is an equilibrium archive", body)
		}
		ans, err := surrogate.DecodeAnswer(blob)
		if err != nil {
			t.Fatalf("%s: decode the re-solve's record: %v", body, err)
		}
		if got := bodyWithoutSource(t, mustJSON(t, response(ans, SourceStore))); !bytes.Equal(got, first[body]) {
			t.Errorf("%s: the record holds another answer:\n%s\nvs\n%s", body, got, first[body])
		}
	}
}

// TestNeverPersistNonConverged pins the persistence invariant: a solve capped
// before convergence is served as 200 converged=false but must never reach
// the disk tier, or a restart would replay an unconverged fixed point forever.
func TestNeverPersistNonConverged(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := testConfig(t)
	cfg.CacheDir = dir
	cfg.Solver.MaxIters = 1
	cfg.Solver.Tol = 1e-15
	base, drain := startDaemon(t, cfg)

	resp, data := postSolve(t, http.DefaultClient, base,
		`{"Workload": {"Requests": 9, "Pop": 0.3, "Timeliness": 2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s, want 200", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Converged {
		t.Fatal("one best-response iteration converged; the test premise broke")
	}
	drain()

	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Len(); n != 0 {
		t.Errorf("non-converged equilibrium persisted: store holds %d records, want 0", n)
	}
}

// TestStoreTierSurvivesCorruption is the mutation-style read-path invariant:
// flip bits in the persisted record and restart — the daemon must never serve
// the CRC-failed bytes (it re-solves instead), must count the corruption, and
// must still produce the same correct answer.
func TestStoreTierSurvivesCorruption(t *testing.T) {
	dir := t.TempDir()
	body := `{"Workload": {"Requests": 13, "Pop": 0.45, "Timeliness": 3}}`

	cfg, _ := testConfig(t)
	cfg.CacheDir = dir
	base, drain := startDaemon(t, cfg)
	resp, goodBody := postSolve(t, http.DefaultClient, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed solve: status %d", resp.StatusCode)
	}
	drain()

	// Flip a byte in the middle of every segment's payload region.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments persisted (err=%v)", err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg2, reg2 := testConfig(t)
	cfg2.CacheDir = dir
	base2, _ := startDaemon(t, cfg2)
	resp2, data2 := postSolve(t, http.DefaultClient, base2, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption solve: status %d body %s", resp2.StatusCode, data2)
	}
	// The corrupt record must not have been served: this was a fresh solve.
	if got := sourceOf(t, data2); got != SourceSolve {
		t.Errorf("source = %q after corruption, want %q", got, SourceSolve)
	}
	snap := reg2.Snapshot()
	if got := snap.Counters["serve.solve.executed"]; got != 1 {
		t.Errorf("serve.solve.executed = %g, want 1 (re-solve after corruption)", got)
	}
	if got := snap.Counters["store.corrupt.total"]; got < 1 {
		t.Errorf("store.corrupt.total = %g, want ≥ 1", got)
	}
	// And the recomputed answer matches the pre-corruption one exactly.
	if !bytes.Equal(goodBody, data2) {
		t.Errorf("recovered answer differs from the original:\n%s\nvs\n%s", goodBody, data2)
	}
}

// TestRetryBudgetEndToEnd drives the X-Mfgcp-Retry contract over HTTP: marked
// retries draw from the budget, a dry budget sheds them with 429 before they
// reach the solver, and retries answered by the cache stay free.
func TestRetryBudgetEndToEnd(t *testing.T) {
	cfg, reg := testConfig(t)
	cfg.RetryBudgetRatio = 0.1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One token instead of retryBurst, so the second retry finds it dry.
	s.retries = &retryBudget{tokens: 1, ratio: cfg.RetryBudgetRatio}
	base, _ := serveDaemon(t, s)

	postRetry := func(body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/solve", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Mfgcp-Retry", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// The single burst token funds the first retry's fresh solve.
	first := `{"Workload": {"Requests": 6, "Pop": 0.2, "Timeliness": 2}}`
	resp, data := postRetry(first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first retry: status %d body %s", resp.StatusCode, data)
	}
	// A second retry needing a fresh solve finds the budget dry.
	resp, data = postRetry(`{"Workload": {"Requests": 8, "Pop": 0.6, "Timeliness": 2}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("dry-budget retry: status %d body %s, want 429", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Kind != "overloaded" {
		t.Errorf("dry-budget retry body = %s, want kind overloaded", data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("dry-budget 429 without Retry-After")
	}
	if got := reg.Snapshot().Counters["serve.retry.denied"]; got != 1 {
		t.Errorf("serve.retry.denied = %g, want 1", got)
	}
	// A retry of the already-solved request is a cache hit: no budget needed.
	resp, data = postRetry(first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached retry: status %d body %s", resp.StatusCode, data)
	}
	if got := sourceOf(t, data); got != SourceCache {
		t.Errorf("cached retry source = %q, want %q", got, SourceCache)
	}

	// Fresh (unmarked) traffic is never budget-limited.
	resp, data = postSolve(t, http.DefaultClient, base,
		`{"Workload": {"Requests": 10, "Pop": 0.7, "Timeliness": 2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh request after dry budget: status %d body %s", resp.StatusCode, data)
	}
}
