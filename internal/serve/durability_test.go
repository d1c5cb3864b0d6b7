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

// TestStoreTierReadsV1Records is the upgrade contract of the store: a daemon
// started over a store whose records older builds wrote as equilibrium
// archives — format v1 (gob of the whole equilibrium) and format v2 (the raw
// float64 paths behind a gob header) — answers those keys from the store,
// with the body a fresh solve gives, and persists what it solves itself as
// an answer record.
func TestStoreTierReadsV1Records(t *testing.T) {
	v1Stored := []string{
		`{"Workload": {"Requests": 11, "Pop": 0.35, "Timeliness": 3}}`,
		`{"Workload": {"Requests": 7, "Pop": 0.2, "Timeliness": 1}}`,
	}
	v2Stored := `{"Workload": {"Requests": 9, "Pop": 0.45, "Timeliness": 2}}`
	later := `{"Workload": {"Requests": 13, "Pop": 0.4, "Timeliness": 2}}`
	stored := append(v1Stored, v2Stored)
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

	// Fresh solves of every key, from a daemon without a store.
	fresh := map[string][]byte{}
	base, _ := startDaemon(t, cfg)
	for _, body := range append(stored, later) {
		resp, data := postSolve(t, http.DefaultClient, base, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fresh solve: status %d body %s", resp.StatusCode, data)
		}
		fresh[body] = bodyWithoutSource(t, data)
	}

	// The store as older builds left it: a v1 or a v2 archive per key.
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range stored {
		eq, err := engine.Solve(cfg.Solver, workloadOf(body))
		if err != nil {
			t.Fatal(err)
		}
		var record []byte
		if body == v2Stored {
			if record, err = engine.MarshalEquilibrium(eq); err != nil {
				t.Fatal(err)
			}
		} else {
			var v1 bytes.Buffer
			if err := gob.NewEncoder(&v1).Encode(v1Archive{Version: 1, Eq: eq}); err != nil {
				t.Fatal(err)
			}
			record = v1.Bytes()
		}
		st.Put(engine.CacheKey(cfg.Solver, workloadOf(body)), record)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2, reg2 := testConfig(t)
	cfg2.CacheDir = dir
	base2, drain2 := startDaemon(t, cfg2)
	for _, body := range stored {
		resp, data := postSolve(t, http.DefaultClient, base2, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("archive record: status %d body %s", resp.StatusCode, data)
		}
		if got := sourceOf(t, data); got != SourceStore {
			t.Errorf("archive record answered from %q, want %q", got, SourceStore)
		}
		if !bytes.Equal(bodyWithoutSource(t, data), fresh[body]) {
			t.Errorf("archive record body differs from a fresh solve:\n%s\nvs\n%s", data, fresh[body])
		}
	}
	snap := reg2.Snapshot()
	if got := snap.Counters["serve.solve.executed"]; got != 0 {
		t.Errorf("archive records were re-solved: serve.solve.executed = %g, want 0", got)
	}
	if got := snap.Counters["serve.store.decode.errors"]; got != 0 {
		t.Errorf("serve.store.decode.errors = %g, want 0", got)
	}
	if resp, data := postSolve(t, http.DefaultClient, base2, later); resp.StatusCode != http.StatusOK || sourceOf(t, data) != SourceSolve {
		t.Fatalf("post-upgrade key: status %d body %s", resp.StatusCode, data)
	}
	drain2()

	// The key solved after the upgrade is persisted as an answer record, not
	// an archive, and it holds the body a fresh solve gives.
	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	blob, ok := st2.Get(engine.CacheKey(cfg.Solver, workloadOf(later)))
	if !ok {
		t.Fatal("the post-upgrade solve was not persisted")
	}
	if _, err := engine.UnmarshalEquilibrium(blob); err == nil {
		t.Error("the post-upgrade record is an equilibrium archive")
	}
	ans, err := surrogate.DecodeAnswer(blob)
	if err != nil {
		t.Fatalf("decode the post-upgrade record: %v", err)
	}
	if got := bodyWithoutSource(t, mustJSON(t, response(ans, SourceStore))); !bytes.Equal(got, fresh[later]) {
		t.Errorf("the post-upgrade record holds another answer:\n%s\nvs\n%s", got, fresh[later])
	}
}

// TestStoreTierSupersedesUndecodableRecords: a record whose checksum holds
// but whose blob this build cannot decode (here a newer answer version) is a
// miss, and the re-solve's answer supersedes it on disk, so the next restart
// answers the key from the store instead of solving it again.
func TestStoreTierSupersedesUndecodableRecords(t *testing.T) {
	body := `{"Workload": {"Requests": 10, "Pop": 0.3, "Timeliness": 2}}`
	cfg, _ := testConfig(t)
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(engine.CacheKey(cfg.Solver, engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}),
		[]byte(`{"answer":2,"converged":true}`))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var first []byte
	for run, want := range []struct {
		source                             Source
		executed, decodeErrors, duplicates float64
	}{
		{SourceSolve, 1, 1, 0},
		{SourceStore, 0, 0, 0},
	} {
		cfg, reg := testConfig(t)
		cfg.CacheDir = dir
		base, drain := startDaemon(t, cfg)
		resp, data := postSolve(t, http.DefaultClient, base, body)
		drain()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d body %s", run, resp.StatusCode, data)
		}
		if got := sourceOf(t, data); got != want.source {
			t.Errorf("run %d: source %q, want %q", run, got, want.source)
		}
		if first == nil {
			first = bodyWithoutSource(t, data)
		} else if !bytes.Equal(bodyWithoutSource(t, data), first) {
			t.Errorf("run %d: body differs from the re-solve's", run)
		}
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
	cfg.RetryBudgetBurst = 1
	base, _ := startDaemon(t, cfg)

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
