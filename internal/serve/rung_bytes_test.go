package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/surrogate"
)

// encoderBody is the writer every /v1/solve 200 went through before answers
// were served from their records: json.NewEncoder over the answer's
// SolveResponse. It is the reference the served bytes must equal.
func encoderBody(t *testing.T, sum *surrogate.Summary, src Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(SolveResponse{
		Converged: sum.Converged, Iterations: sum.Iterations, Residual: sum.Residual,
		Time: sum.Time, Price: sum.Price, MeanControl: sum.MeanControl,
		MeanRemaining: sum.MeanRemaining, SharerFrac: sum.SharerFrac,
		Source: src, ErrorBound: sum.ErrorBound,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encoderRecord is the answer record as the reflection encoder writes it:
// json.Marshal of the version member followed by the summary's members.
func encoderRecord(t *testing.T, sum *surrogate.Summary) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Version int `json:"answer"`
		surrogate.Summary
	}{1, *sum})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// directAnswer resolves a /v1/solve body onto solver and solves it on a
// fresh session, outside any daemon: the answer and key every rung must
// agree with.
func directAnswer(t *testing.T, solver engine.Config, body string) (*surrogate.Summary, string) {
	t.Helper()
	var req SolveRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	cfg, w, err := req.Resolve(solver)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sess.SolveContext(context.Background(), w, nil)
	if err != nil && !errors.Is(err, engine.ErrNotConverged) {
		t.Fatal(err)
	}
	return surrogate.Summarize(eq), engine.CacheKey(cfg, w)
}

// peerGet asks base's /v1/peer/get for the answer of key, requested as the
// /v1/solve body does, and returns the 200's body.
func peerGet(t *testing.T, base, body, key string) []byte {
	t.Helper()
	var req SolveRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	preq, err := json.Marshal(cluster.PeerRequest{Request: req.Request, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/peer/get", "application/json", bytes.NewReader(preq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != cluster.AnswerContentType {
		t.Fatalf("peer get: status %d, Content-Type %q, err %v, body %s", resp.StatusCode, resp.Header.Get("Content-Type"), err, data)
	}
	return data
}

// TestAnswerBodiesMatchEncoder holds the /v1/solve bodies that
// TestExactRungsServeIdenticalBytes does not reach to encoderBody, whole: a
// store hit on a record the reflection encoder wrote with an error bound, a
// capped answer that never converges, and a surrogate answer. Both bounded
// bodies must put source before error_bound.
func TestAnswerBodiesMatchEncoder(t *testing.T) {
	const (
		body    = `{"Workload": {"Requests": 14, "Pop": 0.45, "Timeliness": 2.5}}`
		capped  = `{"Solver": {"MaxIters": 1, "Tol": 1e-15}, "Workload": {"Requests": 14, "Pop": 0.45, "Timeliness": 2.5}}`
		inTable = `{"Workload": {"Requests": 10, "Pop": 0.3, "Timeliness": 2}}`
	)
	cfg, _ := testConfig(t)
	bounded, key := directAnswer(t, cfg.Solver, body)
	bounded.ErrorBound = 0.03125
	partial, _ := directAnswer(t, cfg.Solver, capped)
	if partial.Converged {
		t.Fatal("the capped solve converged")
	}
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(key, encoderRecord(t, bounded))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.CacheDir = dir
	tab := serveTable(t, &cfg)
	resolved, w, err := engine.Request{Workload: json.RawMessage(`{"Requests": 10, "Pop": 0.3, "Timeliness": 2}`)}.Resolve(cfg.Solver)
	if err != nil {
		t.Fatal(err)
	}
	interpolated, ok := tab.Lookup(resolved, w)
	if !ok || interpolated.ErrorBound == 0 {
		t.Fatalf("the table does not answer %s with a bound", inTable)
	}
	base, _ := startDaemon(t, cfg)

	for _, tc := range []struct {
		body string
		want []byte
	}{
		{body, encoderBody(t, bounded, SourceStore)},
		// The capped answer is served but never cached, so both requests
		// solve.
		{capped, encoderBody(t, partial, SourceSolve)},
		{capped, encoderBody(t, partial, SourceSolve)},
		{inTable, encoderBody(t, interpolated, SourceSurrogate)},
	} {
		resp, data := postSolve(t, http.DefaultClient, base, tc.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q, body %s", tc.body, resp.StatusCode, resp.Header.Get("Content-Type"), data)
		}
		if !bytes.Equal(data, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.body, data, tc.want)
		}
	}
}
