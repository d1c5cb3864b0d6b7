package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// cflViolationBody asks the test daemon's 7×15 grid for an explicit solve
// with 3 time steps, which breaks the scheme's CFL bound.
const cflViolationBody = `{"Solver": {"Scheme": "explicit", "Steps": 3}, "Workload": {"Requests": 12, "Pop": 0.3, "Timeliness": 2}}`

// TestErrorCodeMapping pins the full error contract of POST /v1/solve in one
// table: every failure class maps onto its documented HTTP status and
// structured error kind. This is the mapping clients key their retry logic
// on, so a drift here is an API break even when each path "works".
func TestErrorCodeMapping(t *testing.T) {
	tests := []struct {
		name      string
		configure func(*Config)
		// workers starts the full daemon (Serve); otherwise the handler runs
		// without a worker pool, which the queue-full case needs to make the
		// queue occupancy deterministic.
		workers    bool
		prefill    bool // park one request in the queue first
		trip       bool // trip the circuit breaker with a diverging solve first
		body       string
		wantStatus int
		wantKind   string
		// retryAfterMax > 0 asserts a Retry-After header parsing to an integer
		// in [1, retryAfterMax] — the jittered backoff contract of 429/503.
		retryAfterMax int64
	}{
		{
			name:       "malformed JSON",
			body:       `{"Workload": `,
			wantStatus: http.StatusBadRequest,
			wantKind:   "invalid_request",
		},
		{
			name:       "unknown field",
			body:       `{"Grids": 5}`,
			wantStatus: http.StatusBadRequest,
			wantKind:   "invalid_request",
		},
		{
			name:       "non-finite parameter",
			body:       `{"Params": {"Qk": 1e999}}`,
			wantStatus: http.StatusBadRequest,
			wantKind:   "invalid_request",
		},
		{
			name:       "short InitLambda",
			body:       `{"Solver": {"InitLambda": [1, 2]}, "Workload": {"Requests": 12, "Pop": 0.3, "Timeliness": 2}}`,
			wantStatus: http.StatusBadRequest,
			wantKind:   "invalid_request",
		},
		{
			name:       "explicit scheme breaks the CFL bound",
			workers:    true,
			body:       cflViolationBody,
			wantStatus: http.StatusBadRequest,
			wantKind:   "invalid_request",
		},
		{
			name:       "diverged solve",
			workers:    true,
			body:       `{"Solver": {"BlowupResidual": 1e-12}, "Workload": {"Requests": 12, "Pop": 0.3, "Timeliness": 2}}`,
			wantStatus: http.StatusUnprocessableEntity,
			wantKind:   "diverged",
		},
		{
			name:    "deadline expired mid-solve",
			workers: true,
			configure: func(c *Config) {
				// One best-response iteration on this grid costs far more
				// than the 1 ms cap, and the tolerance is unreachable.
				c.Solver.NH, c.Solver.NQ, c.Solver.Steps = 21, 81, 200
				c.Solver.Tol = 1e-12
				c.MaxTimeout = time.Millisecond
			},
			body:       `{"TimeoutMs": 60000, "Workload": {"Requests": 40, "Pop": 0.8, "Timeliness": 4}}`,
			wantStatus: http.StatusGatewayTimeout,
			wantKind:   "interrupted",
		},
		{
			name:       "queue full",
			prefill:    true,
			configure:  func(c *Config) { c.QueueDepth = 1 },
			body:       `{"Workload": {"Requests": 5, "Pop": 0.2}}`,
			wantStatus: http.StatusTooManyRequests,
			wantKind:   "overloaded",
			// 1s base backoff + up to 3s jitter.
			retryAfterMax: 4,
		},
		{
			name:    "breaker open",
			workers: true,
			trip:    true,
			configure: func(c *Config) {
				c.Breaker = BreakerConfig{Failures: 1, OpenFor: 5 * time.Second}
			},
			body:       `{"Workload": {"Requests": 7, "Pop": 0.4, "Timeliness": 2}}`,
			wantStatus: http.StatusServiceUnavailable,
			wantKind:   "breaker_open",
			// ≤5s left in the open window, rounded up, + up to 3s jitter.
			retryAfterMax: 8,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg, reg := testConfig(t)
			if tt.configure != nil {
				tt.configure(&cfg)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var base string
			if tt.workers {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- s.Serve(ctx, ln) }()
				t.Cleanup(func() { cancel(); <-done })
				base = "http://" + ln.Addr().String()
			} else {
				ts := httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)
				base = ts.URL
			}
			if tt.prefill {
				go func() {
					resp, err := http.Post(base+"/v1/solve", "application/json",
						strings.NewReader(`{"TimeoutMs": 500, "Workload": {"Requests": 5, "Pop": 0.1}}`))
					if err == nil {
						resp.Body.Close()
					}
				}()
				deadline := time.Now().Add(5 * time.Second)
				for reg.Snapshot().Counters["serve.solve.requests"] < 1 {
					if time.Now().After(deadline) {
						t.Fatal("prefill request never enqueued")
					}
					time.Sleep(5 * time.Millisecond)
				}
			}

			if tt.trip {
				// One diverging solve is the whole failure streak at
				// Failures=1; its 422 response means the verdict already
				// reached the breaker, so the next fresh solve fails fast.
				resp, data := postSolve(t, http.DefaultClient, base,
					`{"Solver": {"BlowupResidual": 1e-12}, "Workload": {"Requests": 12, "Pop": 0.3, "Timeliness": 2}}`)
				if resp.StatusCode != http.StatusUnprocessableEntity {
					t.Fatalf("breaker trip solve: status %d body %s, want 422", resp.StatusCode, data)
				}
				if got := reg.Snapshot().Counters["breaker.open"]; got != 1 {
					t.Fatalf("breaker.open = %g after the tripping solve, want 1", got)
				}
			}

			resp, data := postSolve(t, http.DefaultClient, base, tt.body)
			if resp.StatusCode != tt.wantStatus {
				t.Fatalf("status %d body %s, want %d", resp.StatusCode, data, tt.wantStatus)
			}
			if tt.retryAfterMax > 0 {
				ra := resp.Header.Get("Retry-After")
				v, err := strconv.ParseInt(ra, 10, 64)
				if err != nil {
					t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
				}
				if v < 1 || v > tt.retryAfterMax {
					t.Errorf("Retry-After = %d, want in [1, %d]", v, tt.retryAfterMax)
				}
			}
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil {
				t.Fatalf("error envelope not JSON: %v (%s)", err, data)
			}
			if eb.Error.Kind != tt.wantKind {
				t.Errorf("error kind %q, want %q (%s)", eb.Error.Kind, tt.wantKind, data)
			}
			if eb.Error.Message == "" {
				t.Error("error envelope carries no message")
			}
		})
	}
}

// TestCFLViolationsLeaveBreakerClosed sends five requests that break the
// explicit scheme's CFL bound, the default breaker's whole failure streak.
// Each is the client's error, so none counts against solver health and a
// well-formed request afterwards still solves.
func TestCFLViolationsLeaveBreakerClosed(t *testing.T) {
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
	for i := 0; i < 5; i++ {
		if resp, data := postSolve(t, http.DefaultClient, base, cflViolationBody); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("CFL violation %d: status %d body %s, want 400", i+1, resp.StatusCode, data)
		}
	}
	if resp, data := postSolve(t, http.DefaultClient, base, `{"Workload": {"Requests": 12, "Pop": 0.3, "Timeliness": 2}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("default request after five CFL violations: status %d body %s, want 200", resp.StatusCode, data)
	}
	if got := reg.Snapshot().Counters["breaker.open"]; got != 0 {
		t.Errorf("breaker.open = %g, want 0", got)
	}
}
