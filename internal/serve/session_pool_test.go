package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// poolBody is a /v1/solve body of the i-th workload under a solver section.
func poolBody(solver string, i int) string {
	return fmt.Sprintf(`{"Solver": %s, "Workload": {"Requests": %d, "Pop": 0.3, "Timeliness": 2}}`, solver, 6+i)
}

// TestSessionPoolKeepsConfigurationsApart interleaves flights of three solver
// configurations over four workers, in two concurrent bursts so the second
// runs on sessions the first put back: every answer must be byte-identical to
// a direct solve of its own configuration. One configuration differs in NQ
// (other buffer sizes), one only in ShareEnabled (the same buffers), so a
// flight that ran on another configuration's session would show.
func TestSessionPoolKeepsConfigurationsApart(t *testing.T) {
	solvers := []string{`{}`, `{"NQ": 17}`, `{"ShareEnabled": false}`}
	const perBurst = 4
	cfg, reg := testConfig(t)
	cfg.Workers = 4
	base := startServer(t, cfg)

	for burst := 0; burst < 2; burst++ {
		var bodies []string
		for i := 0; i < perBurst; i++ {
			for _, solver := range solvers {
				bodies = append(bodies, poolBody(solver, burst*perBurst+i))
			}
		}
		got := make([][]byte, len(bodies))
		status := make([]int, len(bodies))
		var wg sync.WaitGroup
		for i, body := range bodies {
			wg.Add(1)
			go func(i int, body string) {
				defer wg.Done()
				resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST %s: %v", body, err)
					return
				}
				defer resp.Body.Close()
				status[i] = resp.StatusCode
				if got[i], err = io.ReadAll(resp.Body); err != nil {
					t.Errorf("read %s: %v", body, err)
				}
			}(i, body)
		}
		wg.Wait()
		for i, body := range bodies {
			if status[i] != http.StatusOK {
				t.Fatalf("%s: status %d body %s", body, status[i], got[i])
			}
			sum, _ := directAnswer(t, cfg.Solver, body)
			if want := encoderBody(t, sum, SourceSolve); !bytes.Equal(got[i], want) {
				t.Errorf("%s:\n%s\nwant the direct solve's\n%s", body, got[i], want)
			}
		}
	}
	snap := reg.Snapshot()
	if got, want := snap.Counters["serve.solve.executed"], float64(2*perBurst*len(solvers)); got != want {
		t.Errorf("serve.solve.executed = %g, want %g", got, want)
	}
	if got := snap.Counters["serve.session.reset"]; got != 0 {
		t.Errorf("serve.session.reset = %g with %d configurations, want 0", got, len(solvers))
	}
}

// TestSessionPoolReusesAcrossWorkers runs sequential flights of one
// configuration on a two-worker server: whichever worker takes a flight
// finds an idle session, so far fewer sessions are built than flights run.
// (The race detector's sync.Pool drops one put in four, so no exact count.)
func TestSessionPoolReusesAcrossWorkers(t *testing.T) {
	const flights = 16
	cfg, reg := testConfig(t)
	base := startServer(t, cfg)
	for i := 0; i < flights; i++ {
		body := poolBody(`{}`, i)
		if resp, data := postSolve(t, http.DefaultClient, base, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", body, resp.StatusCode, data)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve.solve.executed"]; got != flights {
		t.Fatalf("serve.solve.executed = %g, want %d", got, flights)
	}
	if built := snap.Counters["serve.session.built"]; built < 1 || built >= flights {
		t.Errorf("serve.session.built = %g for %d sequential flights, want at least 1 and fewer than the flights", built, flights)
	}
}

// TestSessionPoolReleasesIdleSessions pins that an idle server does not pin
// its sessions: after two garbage collections the pool is empty, and the
// next flight builds a session again.
func TestSessionPoolReleasesIdleSessions(t *testing.T) {
	cfg, reg := testConfig(t)
	cfg.Workers = 1
	base := startServer(t, cfg)
	solve := func(i int) float64 {
		t.Helper()
		body := poolBody(`{}`, i)
		if resp, data := postSolve(t, http.DefaultClient, base, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", body, resp.StatusCode, data)
		}
		return reg.Snapshot().Counters["serve.session.built"]
	}
	before := solve(0)
	if before != 1 {
		t.Fatalf("serve.session.built = %g after the first flight, want 1", before)
	}
	runtime.GC()
	runtime.GC()
	if after := solve(1); after != before+1 {
		t.Errorf("serve.session.built = %g after two collections, want %g: an idle session outlived them", after, before+1)
	}
}

// TestSessionPoolEvictsLeastRecentlyUsed pins the bound on pooled
// configurations: with configurations A–D pooled and A used again, a fifth
// configuration E drops only B's pool, the least recently used one, and
// counts one serve.session.reset; A, C and D keep theirs.
func TestSessionPoolEvictsLeastRecentlyUsed(t *testing.T) {
	cfg, reg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pools := map[string]*sync.Pool{}
	for _, key := range []string{"A", "B", "C", "D"} {
		pools[key] = s.sessionPool(key)
	}
	if s.sessionPool("A") != pools["A"] {
		t.Fatal("a pooled configuration got a new pool")
	}
	s.sessionPool("E")
	if got := reg.Snapshot().Counters["serve.session.reset"]; got != 1 {
		t.Errorf("serve.session.reset = %g after a fifth configuration, want 1", got)
	}
	for _, key := range []string{"A", "C", "D"} {
		if s.sessionPool(key) != pools[key] {
			t.Errorf("configuration %s lost its pool to the fifth configuration", key)
		}
	}
	if s.sessionPool("B") == pools["B"] {
		t.Error("configuration B, the least recently used, kept its pool")
	}
}
