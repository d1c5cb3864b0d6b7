package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// helperRunEnv re-enters the test binary as a plain `mfgcp` process: when the
// variable holds a JSON args array, TestMain executes run(args) instead of the
// test suite. The kill-and-restart chaos test needs a real child process — a
// SIGKILL cannot be caught, so it cannot be simulated in-process the way the
// SIGINT/SIGTERM tests do — and re-execing the (race-instrumented) test binary
// keeps the daemon under the same detector as everything else.
const helperRunEnv = "MFGCP_HELPER_RUN"

func TestMain(m *testing.M) {
	if doc := os.Getenv(helperRunEnv); doc != "" {
		var args []string
		if err := json.Unmarshal([]byte(doc), &args); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", helperRunEnv, err)
			os.Exit(2)
		}
		if err := run(args); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startServeProc launches `mfgcp serve` with the given args as a real child
// process (via the helper re-exec) and returns the running command.
func startServeProc(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(append([]string{"serve"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), helperRunEnv+"="+string(doc))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return cmd
}

// solveBodyWithoutSource re-encodes a solve body with its provenance removed:
// the equilibrium must survive a restart bit-for-bit even though the source
// field legitimately flips from "solve" to "store".
func solveBodyWithoutSource(t *testing.T, data []byte) []byte {
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

// scrapeCounter reads one counter from the daemon's Prometheus exposition.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if metric, value, ok := strings.Cut(sc.Text(), " "); ok && metric == name {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("counter %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

// TestServeKillRestartChaos is the durability acceptance end to end, against
// the real binary:
//
//  1. a daemon with -cache-dir serves a working set, then dies by SIGKILL
//     mid-load — no drain, no fsync of the active tail;
//  2. the segment on disk gains a seeded torn tail (the half-written frame a
//     crash mid-append leaves behind);
//  3. a restarted daemon over the same directory must recover by truncating
//     the torn tail, answer the working set warm from the store
//     (byte-identical to the pre-kill responses, warm hit rate > 0, zero
//     corrupted 200s) and still drain cleanly on SIGTERM.
func TestServeKillRestartChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real daemon processes")
	}
	dir := t.TempDir()
	cfgPath := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(cfgPath, []byte(`{"Solver": {"NH": 7, "NQ": 15, "Steps": 24}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	base := "http://" + addr
	args := []string{"-addr", addr, "-config", cfgPath, "-cache-dir", dir}

	daemon := startServeProc(t, args...)
	waitReady(t, base)

	// Warm the working set: distinct workloads, each a fresh solve whose
	// response bytes are the ground truth for the post-restart replay.
	bodies := make([]string, 6)
	want := make([][]byte, len(bodies))
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"Workload": {"Requests": %d, "Pop": 0.%d5, "Timeliness": 3}}`, 8+i, i+1)
		resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(bodies[i]))
		if err != nil {
			t.Fatalf("warm-up solve %d: %v", i, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up solve %d: status %d body %s", i, resp.StatusCode, data)
		}
		want[i] = data
	}
	// Give the write-behind queue a beat to land the records in the page
	// cache (SIGKILL preserves written file contents; only a machine crash
	// needs the fsync the drain path does).
	time.Sleep(300 * time.Millisecond)

	// SIGKILL mid-load: keep traffic in flight so the kill lands while the
	// daemon is actually working, not idle.
	stop := make(chan struct{})
	var load sync.WaitGroup
	load.Add(1)
	go func() {
		defer load.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(base+"/v1/solve", "application/json",
				strings.NewReader(bodies[i%len(bodies)]))
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err := daemon.Wait()
	close(stop)
	load.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("daemon exit after SIGKILL: %v", err)
	}

	// Seed the torn tail the kill could have left (and on a fast disk usually
	// does not): a partial frame appended to the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments on disk after kill (err=%v)", err)
	}
	sort.Strings(segs)
	tail := segs[len(segs)-1]
	st, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	cleanSize := st.Size()
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn frame: a crash interrupted this append")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart over the same directory.
	addr2 := freePort(t)
	base2 := "http://" + addr2
	args2 := []string{"-addr", addr2, "-config", cfgPath, "-cache-dir", dir}
	daemon2 := startServeProc(t, args2...)
	waitReady(t, base2)

	// Recovery truncated the torn tail before serving.
	if st, err = os.Stat(tail); err != nil {
		t.Fatal(err)
	}
	if st.Size() != cleanSize {
		t.Errorf("segment %s is %d bytes after recovery, want %d (torn tail truncated)",
			filepath.Base(tail), st.Size(), cleanSize)
	}
	if got := scrapeCounter(t, base2, "store_truncated_total"); got < 1 {
		t.Errorf("store_truncated_total = %g, want ≥ 1", got)
	}

	// Replay the working set: every answer a 200 with the identical
	// equilibrium as its pre-kill response (zero corrupted 200s; the source
	// field legitimately changes from "solve" to "store"), with a warm store
	// hit rate above zero — the restarted daemon did not cold-start the
	// working set.
	storeHits := 0
	for i, body := range bodies {
		resp, err := http.Post(base2+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("replay solve %d: %v", i, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay solve %d: status %d body %s", i, resp.StatusCode, data)
		}
		if !bytes.Equal(solveBodyWithoutSource(t, data), solveBodyWithoutSource(t, want[i])) {
			t.Errorf("replay solve %d: equilibrium differs from pre-kill response:\n%s\nvs\n%s", i, data, want[i])
		}
		var sr struct {
			Source string `json:"source"`
		}
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("replay solve %d: decode: %v", i, err)
		}
		if sr.Source == "store" {
			storeHits++
		}
	}
	if storeHits == 0 {
		t.Error("warm store hit rate is zero after restart: nothing survived the kill")
	}
	if got := scrapeCounter(t, base2, "store_hit_total"); got < float64(storeHits) {
		t.Errorf("store_hit_total = %g, want ≥ %d", got, storeHits)
	}

	// The restarted daemon still drains cleanly.
	if err := daemon2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon2.Wait(); err != nil {
		t.Fatalf("restarted daemon exit after SIGTERM: %v, want 0", err)
	}
}
