package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/loadgen"
)

// clusterSolve posts one solve body and fails the test on anything but a 200.
func clusterSolve(t *testing.T, base, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("solve against %s: %v", base, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve against %s: status %d body %s", base, resp.StatusCode, data)
	}
	return data
}

// TestClusterKillReplicaChaos is the fleet availability acceptance end to end,
// against real processes:
//
//  1. a 3-replica fleet (static -peers ring) serves a hot key; the ring owner
//     of that key is identified by which replica's executed-solve counter
//     moved, and a second, cold key held EXCLUSIVELY by that owner is found
//     the same way;
//  2. the owner dies by SIGKILL mid-load while `loadgen` sprays the hot key
//     across all three members with response validation on — no corrupt 200s
//     are tolerated during the failure window;
//  3. the survivors must mark the dead peer down (cluster_peers_healthy
//     drops to 2), take over ownership of its keys, and re-solve the cold
//     key byte-identically to its pre-kill answer — the solver is
//     deterministic, so failover must not change what clients see;
//  4. both survivors still drain cleanly on SIGTERM.
func TestClusterKillReplicaChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real daemon processes")
	}
	cfgPath := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(cfgPath, []byte(`{"Solver": {"NH": 7, "NQ": 15, "Steps": 24}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	const n = 3
	addrs := make([]string, n)
	bases := make([]string, n)
	for i := range addrs {
		addrs[i] = freePort(t)
		bases[i] = "http://" + addrs[i]
	}
	peersFlag := strings.Join(bases, ",")
	daemons := make([]*exec.Cmd, n)
	for i := range daemons {
		daemons[i] = startServeProc(t,
			"-addr", addrs[i], "-advertise", bases[i], "-peers", peersFlag,
			"-peer-probe", "100ms", "-config", cfgPath)
	}
	for _, base := range bases {
		waitReady(t, base)
	}

	// The hot key: posted to replica 0, solved exactly once fleet-wide by its
	// ring owner (replica 0 either owned it or peer-filled from the owner).
	hotBody := `{"Workload": {"Requests": 12, "Pop": 0.35, "Timeliness": 3}}`
	clusterSolve(t, bases[0], hotBody)
	ownerIdx := -1
	for i, base := range bases {
		if scrapeCounter(t, base, "serve_solve_executed_total") == 1 {
			if ownerIdx != -1 {
				t.Fatalf("replicas %d and %d both executed the hot solve, want exactly one cold solve fleet-wide", ownerIdx, i)
			}
			ownerIdx = i
		}
	}
	if ownerIdx == -1 {
		t.Fatal("no replica executed the hot solve")
	}

	// A cold key the kill target holds exclusively: candidates go straight to
	// the owner, and the one whose solve ran on the owner alone (no forward)
	// is ring-owned by it — after the kill, no other replica has it cached,
	// so serving it again forces a failover re-solve.
	execBase := make([]float64, n)
	for i, base := range bases {
		execBase[i] = scrapeCounter(t, base, "serve_solve_executed_total")
	}
	var coldBody string
	var coldWant []byte
	for req := 40; req < 80 && coldBody == ""; req++ {
		cand := fmt.Sprintf(`{"Workload": {"Requests": %d, "Pop": 0.62, "Timeliness": 2}}`, req)
		data := clusterSolve(t, bases[ownerIdx], cand)
		solo := true
		for i, base := range bases {
			v := scrapeCounter(t, base, "serve_solve_executed_total")
			if i == ownerIdx {
				solo = solo && v == execBase[i]+1
			} else {
				solo = solo && v == execBase[i]
			}
			execBase[i] = v
		}
		if solo {
			coldBody = cand
			coldWant = solveBodyWithoutSource(t, data)
		}
	}
	if coldBody == "" {
		t.Fatal("no candidate workload is ring-owned by the kill target")
	}

	// Spray the hot key across the whole fleet and SIGKILL its owner inside
	// the window. Validation gates the one unforgivable failure: a 200 whose
	// body is not a coherent equilibrium. Errors and timeouts are expected —
	// a third of the targets is a corpse for most of the window.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	repCh := make(chan *loadgen.Report, 1)
	errCh := make(chan error, 1)
	go func() {
		rep, err := loadgen.Run(ctx, loadgen.Config{
			Targets:       bases,
			RPS:           120,
			Duration:      4 * time.Second,
			Timeout:       5 * time.Second,
			Bodies:        [][]byte{[]byte(hotBody)},
			Validate:      true,
			ScrapeMetrics: true,
			SLO: loadgen.SLO{
				MaxErrorRate:   loadgen.Unchecked,
				MaxShedRate:    loadgen.Unchecked,
				MaxTimeoutRate: loadgen.Unchecked,
			},
		})
		repCh <- rep
		errCh <- err
	}()
	time.Sleep(800 * time.Millisecond)
	if err := daemons[ownerIdx].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	werr := daemons[ownerIdx].Wait()
	var exit *exec.ExitError
	if !errors.As(werr, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("owner exit after SIGKILL: %v", werr)
	}
	rep := <-repCh
	if err := <-errCh; err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if rep.Corrupt200s != 0 {
		t.Errorf("corrupt 200s during the kill window = %d, want 0", rep.Corrupt200s)
	}
	if rep.Succeeded == 0 {
		t.Error("no request succeeded during the kill window; the survivors should have kept serving")
	}
	// The report still aggregates the scrapeable members: the corpse is
	// skipped, not fatal, and the fleet view shows peer traffic happened.
	if rep.Server == nil {
		t.Fatal("multi-target scrape produced no fleet aggregate")
	}
	if rep.Server.PeerHits == 0 {
		t.Error("fleet-wide cluster.peer_hit delta is zero; non-owners should have peer-filled the hot key")
	}

	var survivors []int
	for i := range bases {
		if i != ownerIdx {
			survivors = append(survivors, i)
		}
	}

	// Failover: each survivor's prober must mark the corpse down.
	deadline := time.Now().Add(15 * time.Second)
	for _, i := range survivors {
		for scrapeCounter(t, bases[i], "cluster_peers_healthy") != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never marked the killed owner down", bases[i])
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// The cold key's owner is gone and nobody else holds its answer: serving
	// it now walks the ring past the dead member and re-solves. The solver is
	// deterministic, so the re-solved body must match the pre-kill answer
	// bit for bit (provenance aside).
	for _, i := range survivors {
		data := clusterSolve(t, bases[i], coldBody)
		if got := solveBodyWithoutSource(t, data); !bytes.Equal(got, coldWant) {
			t.Errorf("replica %s: failover re-solve differs from the pre-kill equilibrium:\n%s\nvs\n%s",
				bases[i], got, coldWant)
		}
	}
	var peerHits float64
	for _, i := range survivors {
		peerHits += scrapeCounter(t, bases[i], "cluster_peer_hit_total")
	}
	if peerHits == 0 {
		t.Error("survivors report zero cluster_peer_hit_total; the fleet never peer-filled")
	}

	// Survivors still drain cleanly.
	for _, i := range survivors {
		if err := daemons[i].Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := daemons[i].Wait(); err != nil {
			t.Fatalf("survivor %s exit after SIGTERM: %v, want 0", bases[i], err)
		}
	}
}
