package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	mfgcp "repro"
	"repro/internal/serve"
	"repro/internal/surrogate"
)

// freePort reserves an ephemeral port and releases it for the daemon to bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitReady polls /healthz until the daemon answers.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

// TestServeEndToEnd is the CLI-level serve acceptance: start `mfgcp serve`
// in-process on a small grid, answer /healthz and a converged /v1/solve, and
// exit 0 on SIGTERM while draining.
func TestServeEndToEnd(t *testing.T) {
	addr := freePort(t)
	cfgPath := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(cfgPath, []byte(`{"Solver": {"NH": 7, "NQ": 15, "Steps": 24}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", addr, "-config", cfgPath, "-drain-timeout", "30s"})
	}()
	base := "http://" + addr
	waitReady(t, base)

	resp, err := http.Post(base+"/v1/solve", "application/json",
		strings.NewReader(`{"Workload": {"Requests": 12, "Pop": 0.25, "Timeliness": 3}}`))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/solve: status %d body %s", resp.StatusCode, body)
	}
	var out struct {
		Converged bool      `json:"converged"`
		Price     []float64 `json:"price"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !out.Converged || len(out.Price) == 0 {
		t.Fatalf("equilibrium summary not converged: %s", body)
	}

	// The daemon mounts its metrics on the same port.
	resp, err = http.Get(base + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %v %v", resp, err)
	}
	resp.Body.Close()

	// SIGTERM drains and the command returns nil — the exit-0 contract.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}

// TestSolveConfigFile checks `mfgcp solve -config` decodes the request-shaped
// document and that explicit flags override it.
func TestSolveConfigFile(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "solve.json")
	doc := `{
  "Params": {"Qk": 80},
  "Solver": {"NH": 5, "NQ": 11, "Steps": 12},
  "Workload": {"Requests": 8, "Pop": 0.2, "Timeliness": 2}
}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"solve", "-config", cfgPath, "-pop", "0.4"}); err != nil {
		t.Fatalf("solve -config: %v", err)
	}
	// A malformed document fails with a decode error naming the file.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"Solver": {"Damp": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"solve", "-config", bad})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("bad config: got %v, want unknown-field error", err)
	}
}

// TestSolveConfigSolverParams pins the one precedence rule of a solve
// document: a Params member inside the Solver section counts in
// `mfgcp solve -config`, exactly as in the top-level Params section and as
// in the same body posted to /v1/solve.
func TestSolveConfigSolverParams(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"-nh", "5", "-nq", "11", "-steps", "12"}
	solveArchive := func(name, doc string) []byte {
		t.Helper()
		cfgPath := filepath.Join(dir, name+".json")
		if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, name+".eq")
		if _, err := captureStdout(t, func() error {
			return run(append([]string{"solve", "-config", cfgPath, "-save", out}, grid...))
		}); err != nil {
			t.Fatalf("solve -config %s: %v", doc, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	nested := solveArchive("nested", `{"Solver":{"Params":{"Eta1":7}}}`)
	top := solveArchive("top", `{"Params":{"Eta1":7}}`)
	if !bytes.Equal(nested, top) {
		t.Fatal(`solve with {"Solver":{"Params":{"Eta1":7}}} differs from {"Params":{"Eta1":7}}`)
	}
	if bytes.Equal(nested, solveArchive("default", `{}`)) {
		t.Fatal("Solver.Params.Eta1 = 7 left the default equilibrium")
	}
	eq, err := mfgcp.ReadEquilibrium(bytes.NewReader(nested))
	if err != nil {
		t.Fatal(err)
	}

	params := mfgcp.DefaultParams()
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", Workers: 1, Params: params, Solver: mfgcp.DefaultSolverConfig(params)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()
	body := `{"Solver":{"Params":{"Eta1":7},"NH":5,"NQ":11,"Steps":12},"Workload":{"Requests":10,"Pop":0.3,"Timeliness":2}}`
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/solve: status %d, %v", resp.StatusCode, err)
	}
	want, times := surrogate.SampleEquilibrium(eq)
	if !reflect.DeepEqual(got.Time, times) || !reflect.DeepEqual(got.Price, want.Price) ||
		!reflect.DeepEqual(got.MeanControl, want.MeanControl) || got.Iterations != want.Iterations {
		t.Errorf("/v1/solve answered price %v (%d iterations), the CLI solved %v (%d)",
			got.Price, got.Iterations, want.Price, want.Iterations)
	}
}

// TestConfigRejectsMisspelledSection pins the strict -config reader: a
// misspelled top-level section fails solve, serve and precompute before any
// work, as it fails a request body with 400.
func TestConfigRejectsMisspelledSection(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	for _, tc := range []struct {
		doc, field string
		args       []string
	}{
		{`{"Worklaod": {"Requests": 8}}`, "Worklaod", []string{"solve", "-save", out}},
		{`{"Solvr": {"NH": 5}}`, "Solvr", []string{"serve", "-addr", "127.0.0.1:0"}},
		{`{"Parms": {"Qk": 80}}`, "Parms", []string{"precompute", "-out", out}},
	} {
		cfgPath := filepath.Join(dir, tc.field+".json")
		if err := os.WriteFile(cfgPath, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- run(append(tc.args, "-config", cfgPath)) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
				t.Errorf("%s -config %s: got %v, want an unknown-field error", tc.args[0], tc.doc, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s -config %s: still running, want an immediate error", tc.args[0], tc.doc)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s wrote %s before failing", tc.args[0], out)
		}
	}
}

// TestMarketConfigFile checks `mfgcp market -config` end to end with a flag
// override.
func TestMarketConfigFile(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "market.json")
	doc := fmt.Sprintf(`{
  "Params": {"M": 8, "K": 3},
  "Policy": "rr",
  "Epochs": 3,
  "StepsPerEpoch": 6,
  "Solver": {"NH": 5, "NQ": 11, "Steps": 12}
}`)
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	// -epochs set explicitly wins over the file's 3.
	if err := run([]string{"market", "-config", cfgPath, "-epochs", "1"}); err != nil {
		t.Fatalf("market -config: %v", err)
	}
	err := run([]string{"market", "-config", cfgPath, "-policy", "lfu"})
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("unknown policy: got %v", err)
	}
}
