package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/pde"
)

// peerOwnedBody returns a solve body whose canonical key the ring assigns to
// fakeOwner rather than self, so the request is guaranteed to forward. The
// search is deterministic: the key is a pure function of the resolved solver
// config and the workload, and ownership a pure function of the member set.
func peerOwnedBody(t *testing.T, solver engine.Config, self, fakeOwner string) string {
	t.Helper()
	ring := cluster.NewRing(0)
	ring.Add(self)
	ring.Add(fakeOwner)
	for req := 1; req <= 200; req++ {
		w := engine.Workload{Requests: float64(req), Pop: 0.3, Timeliness: 2}
		if ring.Owner(engine.CacheKey(solver, w)) == fakeOwner {
			return fmt.Sprintf(`{"Workload": {"Requests": %d, "Pop": 0.3, "Timeliness": 2}}`, req)
		}
	}
	t.Fatal("no candidate workload hashes to the fake owner")
	return ""
}

// peerBlob marshals a minimal (but decodable) equilibrium for a fake
// owner to return.
func peerBlob(t *testing.T, converged bool) []byte {
	t.Helper()
	eq := &engine.Equilibrium{
		Converged:  converged,
		Iterations: 5,
		Residuals:  []float64{1e-3},
		HJB:        &pde.HJBSolution{},
		FPK:        &pde.FPKSolution{},
		Snapshots: []engine.Snapshot{
			{T: 0, Price: 1.5, MeanControl: 0.2, QBar: 3, SharerFrac: 0.1},
			{T: 1, Price: 1.4, MeanControl: 0.25, QBar: 2.8, SharerFrac: 0.15},
		},
	}
	blob, err := engine.MarshalEquilibrium(eq)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestPeerFailureMapping pins the fleet's availability contract in one table:
// no peer-fill failure mode may ever surface as a client-visible error. A
// slow, dead, drifted or garbage-spewing owner degrades the request to the
// local solve ladder (source "solve"); a healthy owner's answer is served
// with source "peer", and only a CONVERGED peer answer is promoted into the
// local LRU.
func TestPeerFailureMapping(t *testing.T) {
	tests := []struct {
		name string
		// owner builds the fake owner's handler; nil means the owner is
		// unreachable (closed listener).
		owner func(t *testing.T) http.HandlerFunc
		// hang > 0 makes the owner sleep past the peer timeout.
		hang time.Duration

		wantSource    Source
		wantConverged bool
		wantCached    int // requester LRU entries after the request
		wantPeerHit   float64
		wantPeerMiss  float64
		wantExecuted  float64 // local solves
	}{
		{
			name: "converged peer answer served and promoted",
			owner: func(t *testing.T) http.HandlerFunc {
				blob := peerBlob(t, true)
				return func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set(cluster.SourceHeader, "cache")
					w.Header().Set(cluster.ConvergedHeader, "true")
					_, _ = w.Write(blob)
				}
			},
			wantSource:    SourcePeer,
			wantConverged: true,
			wantCached:    1,
			wantPeerHit:   1,
		},
		{
			name: "non-converged peer answer served but NOT promoted",
			owner: func(t *testing.T) http.HandlerFunc {
				blob := peerBlob(t, false)
				return func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set(cluster.ConvergedHeader, "false")
					_, _ = w.Write(blob)
				}
			},
			wantSource:  SourcePeer,
			wantCached:  0,
			wantPeerHit: 1,
		},
		{
			name:          "peer timeout degrades to local cold solve",
			hang:          2 * time.Second,
			owner:         func(t *testing.T) http.HandlerFunc { return func(http.ResponseWriter, *http.Request) {} },
			wantSource:    SourceSolve,
			wantConverged: true,
			wantCached:    1,
			wantPeerMiss:  1,
			wantExecuted:  1,
		},
		{
			name:          "peer unreachable degrades to local cold solve",
			owner:         nil,
			wantSource:    SourceSolve,
			wantConverged: true,
			wantCached:    1,
			wantPeerMiss:  1,
			wantExecuted:  1,
		},
		{
			name: "peer key mismatch (config drift) degrades to local cold solve",
			owner: func(t *testing.T) http.HandlerFunc {
				return func(w http.ResponseWriter, r *http.Request) {
					w.WriteHeader(http.StatusConflict)
					_, _ = w.Write([]byte(`{"error":{"kind":"key_mismatch","message":"drift"}}`))
				}
			},
			wantSource:    SourceSolve,
			wantConverged: true,
			wantCached:    1,
			wantPeerMiss:  1,
			wantExecuted:  1,
		},
		{
			name: "peer garbage blob degrades to local cold solve",
			owner: func(t *testing.T) http.HandlerFunc {
				return func(w http.ResponseWriter, r *http.Request) {
					_, _ = w.Write([]byte("these bytes are not an equilibrium"))
				}
			},
			wantSource:    SourceSolve,
			wantConverged: true,
			wantCached:    1,
			wantPeerMiss:  1,
			wantExecuted:  1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var fakeURL string
			if tt.owner != nil {
				handler := tt.owner(t)
				fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/readyz" {
						w.WriteHeader(http.StatusOK)
						return
					}
					if tt.hang > 0 {
						time.Sleep(tt.hang)
					}
					handler(w, r)
				}))
				t.Cleanup(fake.Close)
				fakeURL = fake.URL
			} else {
				dead := httptest.NewServer(http.NotFoundHandler())
				fakeURL = dead.URL
				dead.Close()
			}

			cfg, reg := testConfig(t)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			self := "http://" + ln.Addr().String()
			cfg.Cluster = cluster.Config{
				Self:        self,
				Peers:       []string{self, fakeURL},
				PeerTimeout: 200 * time.Millisecond,
				// Keep the prober quiet for the test's lifetime: health changes
				// come only from fill round trips, deterministically.
				ProbeInterval: time.Hour,
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- s.Serve(ctx, ln) }()
			t.Cleanup(func() { cancel(); <-done })

			body := peerOwnedBody(t, s.cfg.Solver, self, fakeURL)
			resp, data := postSolve(t, http.DefaultClient, self, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d body %s, want 200 (peer failures must never surface)", resp.StatusCode, data)
			}
			var sr SolveResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if sr.Source != tt.wantSource {
				t.Errorf("source = %q, want %q", sr.Source, tt.wantSource)
			}
			if sr.Converged != tt.wantConverged {
				t.Errorf("converged = %v, want %v", sr.Converged, tt.wantConverged)
			}
			if got := s.Cache().Len(); got != tt.wantCached {
				t.Errorf("requester LRU holds %d entries, want %d", got, tt.wantCached)
			}
			snap := reg.Snapshot()
			checks := []struct {
				name string
				want float64
			}{
				{"cluster.peer_hit", tt.wantPeerHit},
				{"cluster.peer_miss", tt.wantPeerMiss},
				{"serve.solve.executed", tt.wantExecuted},
				{"cluster.forwarded", 1},
			}
			for _, c := range checks {
				if got := snap.Counters[c.name]; got != c.want {
					t.Errorf("%s = %g, want %g", c.name, got, c.want)
				}
			}
		})
	}
}

// TestPeerEndpointDisabled pins that a single-replica daemon refuses
// /v1/peer/get outright instead of pretending to be a fleet member.
func TestPeerEndpointDisabled(t *testing.T) {
	cfg, _ := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	resp, err := http.Post(ts.URL+"/v1/peer/get", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400 on a fleet-less daemon", resp.StatusCode)
	}
}
