// Package loadgen is the serving-tier load-test harness behind `mfgcp
// loadgen`: an open-loop constant-rate generator that replays solve workloads
// against a live `mfgcp serve` endpoint and reports tail latency
// (p50/p99/p999), error/shed/timeout rates and a pass/fail verdict against a
// declared SLO — the measurement ROADMAP item 1 calls for.
//
// Open loop means the generator fires at the configured rate regardless of
// how fast the server answers (launches beyond MaxInFlight are dropped and
// counted, never queued), so a saturated server shows up as shed load and
// inflated tails instead of silently throttling the generator — the failure
// mode that matters at "millions of EDPs" scale.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config parametrises one load-generation run.
type Config struct {
	// Targets are the base URLs of running serve daemons (e.g.
	// "http://127.0.0.1:8080"), at least one. Requests rotate round-robin
	// over them, so several spray the load across a fleet. With ScrapeMetrics
	// on, every member is scraped and the report carries both per-replica
	// counters (Report.Replicas) and the fleet-wide aggregate (Report.Server)
	// — including the cluster routing counters owned/forwarded/peer_hit/
	// peer_miss.
	Targets []string
	// RPS is the offered request rate (default 10).
	RPS float64
	// Duration is the generation window (default 5s); requests in flight at
	// its end are awaited, not cancelled.
	Duration time.Duration
	// Timeout bounds one request (default 10s); requests past it count as
	// timeouts, not errors.
	Timeout time.Duration
	// MaxInFlight caps concurrent requests (default 256). The generator
	// never queues: a tick arriving with the cap exhausted is dropped and
	// counted into the shed rate.
	MaxInFlight int
	// Bodies are the POST /v1/solve request documents, cycled round-robin —
	// distinct workloads exercise cold solves, repeats exercise the cache
	// and singleflight tiers.
	Bodies [][]byte
	// SLO is the verdict gate (see SLO); the zero value checks nothing.
	SLO SLO
	// Validate decodes every 2xx body and counts responses that are not
	// well-formed solve summaries into Report.Corrupt200s — the chaos
	// harness's "zero corrupted 200s" gate. Any corrupt 200 fails the run.
	Validate bool
	// ScrapeMetrics snapshots the target's /metrics?format=prom before and
	// after the window and reports the counter deltas (cache warmth, store
	// hits, breaker transitions) in Report.Server.
	ScrapeMetrics bool
	// Client overrides the HTTP client (tests); nil builds one from Timeout.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.RPS <= 0 {
		c.RPS = 10
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	return c
}

// SLO declares the service-level objective the report is judged against.
// Latency bounds at zero are unchecked; rate bounds below zero are unchecked
// (zero is a legitimate strict bound: "no shed requests allowed").
type SLO struct {
	P50Ms  float64 `json:"p50_ms,omitempty"`
	P99Ms  float64 `json:"p99_ms,omitempty"`
	P999Ms float64 `json:"p999_ms,omitempty"`

	MaxErrorRate   float64 `json:"max_error_rate,omitempty"`
	MaxShedRate    float64 `json:"max_shed_rate,omitempty"`
	MaxTimeoutRate float64 `json:"max_timeout_rate,omitempty"`
}

// Unchecked is the SLO rate sentinel: bounds set to it are not evaluated.
const Unchecked = -1

// LatencySummary is the latency distribution of the successful requests, in
// milliseconds.
type LatencySummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// Report is the JSON result of one run. Rates are fractions of Sent.
type Report struct {
	Target          string  `json:"target"`
	OfferedRPS      float64 `json:"offered_rps"`
	AchievedRPS     float64 `json:"achieved_rps"`
	DurationSeconds float64 `json:"duration_seconds"`

	Sent        int64 `json:"sent"`
	Succeeded   int64 `json:"succeeded"`              // 2xx answers (latency sample source)
	Shed        int64 `json:"shed"`                   // 429/503 answers
	Timeouts    int64 `json:"timeouts"`               // client deadline exceeded
	Errors      int64 `json:"errors"`                 // transport failures and other statuses
	Dropped     int64 `json:"dropped"`                // open-loop overruns beyond MaxInFlight
	Corrupt200s int64 `json:"corrupt_200s,omitempty"` // 2xx bodies failing validation (Validate on)

	ShedRate    float64 `json:"shed_rate"` // (shed+dropped)/sent
	ErrorRate   float64 `json:"error_rate"`
	TimeoutRate float64 `json:"timeout_rate"`

	Latency LatencySummary `json:"latency_ms"`

	// Server holds the daemon-side counter deltas when ScrapeMetrics is on;
	// for a multi-target run it is the fleet-wide aggregate.
	Server *ServerCounters `json:"server,omitempty"`
	// Replicas holds the per-member counter deltas of a multi-target run
	// (ScrapeMetrics on), in target order.
	Replicas []ReplicaCounters `json:"replicas,omitempty"`

	SLO        SLO      `json:"slo"`
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// Run executes one open-loop load generation and returns its report. The
// error is non-nil only for harness failures (bad config, cancelled before
// the first request); an unhealthy target yields a report with violations,
// not an error — callers gate on Report.Pass.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	targets := cfg.Targets
	if len(targets) == 0 {
		return nil, fmt.Errorf("loadgen: Targets is required")
	}
	if len(cfg.Bodies) == 0 {
		return nil, fmt.Errorf("loadgen: at least one request body is required")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}

	// Pre-run scrapes, one per fleet member. A member that cannot be scraped
	// (e.g. already killed by a chaos harness) contributes nil and is skipped
	// in the report rather than failing the run.
	var before []map[string]float64
	if cfg.ScrapeMetrics {
		before = make([]map[string]float64, len(targets))
		scraped := 0
		var lastErr error
		for i, tgt := range targets {
			if snap, err := scrapeProm(client, tgt); err == nil {
				before[i] = snap
				scraped++
			} else {
				lastErr = err
			}
		}
		if scraped == 0 {
			return nil, lastErr
		}
	}

	var (
		sent, succeeded, shed, timeouts, errCount, dropped, corrupt atomic.Int64

		hist = obs.NewHistogram()
		sem  = make(chan struct{}, cfg.MaxInFlight)
		wg   sync.WaitGroup
	)
	fire := func(target string, body []byte, seq int64) {
		defer wg.Done()
		defer func() { <-sem }()
		req, err := http.NewRequest(http.MethodPost, target+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			errCount.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", fmt.Sprintf("loadgen-%d", seq))
		start := time.Now()
		resp, err := client.Do(req)
		elapsed := time.Since(start)
		if err != nil {
			var uerr interface{ Timeout() bool }
			if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &uerr) && uerr.Timeout()) {
				timeouts.Add(1)
			} else {
				errCount.Add(1)
			}
			return
		}
		var data []byte
		if cfg.Validate && resp.StatusCode >= 200 && resp.StatusCode < 300 {
			data, err = io.ReadAll(resp.Body)
		} else {
			_, _ = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			succeeded.Add(1)
			hist.Observe(elapsed.Seconds())
			if cfg.Validate {
				if err != nil {
					errCount.Add(1)
				} else if verr := validateSolveBody(data); verr != nil {
					corrupt.Add(1)
				}
			}
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			// 429 (queue/retry budget) and 503 (circuit breaker) are both the
			// server shedding by design, not failures.
			shed.Add(1)
		default:
			errCount.Add(1)
		}
	}

	interval := time.Duration(float64(time.Second) / cfg.RPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.NewTimer(cfg.Duration)
	defer stop.Stop()
	runStart := time.Now()

	next := 0
generate:
	for {
		select {
		case <-ctx.Done():
			break generate
		case <-stop.C:
			break generate
		case <-ticker.C:
			seq := sent.Add(1)
			select {
			case sem <- struct{}{}:
				// Bodies rotate per request and the target advances per body
				// cycle, so every body visits every fleet member within
				// len(Bodies)×len(targets) requests (mixed-target load) even
				// when the two cycle lengths share factors.
				body := cfg.Bodies[next%len(cfg.Bodies)]
				target := targets[(next/len(cfg.Bodies))%len(targets)]
				next++
				wg.Add(1)
				go fire(target, body, seq)
			default:
				dropped.Add(1) // open loop: never queue behind a saturated cap
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(runStart)

	rep := &Report{
		Target:          strings.Join(targets, ","),
		OfferedRPS:      cfg.RPS,
		DurationSeconds: elapsed.Seconds(),
		Sent:            sent.Load(),
		Succeeded:       succeeded.Load(),
		Shed:            shed.Load(),
		Timeouts:        timeouts.Load(),
		Errors:          errCount.Load(),
		Dropped:         dropped.Load(),
		Corrupt200s:     corrupt.Load(),
		SLO:             cfg.SLO,
	}
	if cfg.ScrapeMetrics {
		for i, tgt := range targets {
			if before[i] == nil {
				continue // unscrapeable before the run; still unaccounted
			}
			after, err := scrapeProm(client, tgt)
			if err != nil {
				// The member died during the window (chaos harness): its
				// pre-kill counters are unreadable now, so it contributes
				// nothing rather than failing the whole report.
				continue
			}
			rep.Replicas = append(rep.Replicas, ReplicaCounters{
				Target:         tgt,
				ServerCounters: *counterDeltas(before[i], after),
			})
		}
		rep.Server = aggregateCounters(rep.Replicas)
		if len(targets) == 1 {
			rep.Replicas = nil // single-target reports keep their PR-4 shape
		}
	}
	if rep.Sent == 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("loadgen: cancelled before the first request: %w", err)
		}
		return nil, fmt.Errorf("loadgen: generated no requests in %s at %g rps", cfg.Duration, cfg.RPS)
	}
	rep.AchievedRPS = float64(rep.Succeeded) / elapsed.Seconds()
	rep.ShedRate = float64(rep.Shed+rep.Dropped) / float64(rep.Sent)
	rep.ErrorRate = float64(rep.Errors) / float64(rep.Sent)
	rep.TimeoutRate = float64(rep.Timeouts) / float64(rep.Sent)
	if st := hist.Stat(); st.Count > 0 {
		rep.Latency = LatencySummary{
			Mean: st.Mean * 1e3,
			P50:  st.P50 * 1e3,
			P90:  st.P90 * 1e3,
			P99:  st.P99 * 1e3,
			P999: st.P999 * 1e3,
			Max:  st.Max * 1e3,
		}
	}
	rep.evaluate()
	return rep, nil
}

// evaluate fills Violations and Pass from the report's SLO.
func (r *Report) evaluate() {
	check := func(cond bool, format string, args ...any) {
		if cond {
			r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
		}
	}
	slo := r.SLO
	if r.Succeeded == 0 {
		check(slo.P50Ms > 0 || slo.P99Ms > 0 || slo.P999Ms > 0,
			"no successful requests to measure latency against the SLO")
	} else {
		check(slo.P50Ms > 0 && r.Latency.P50 > slo.P50Ms,
			"p50 %.3fms exceeds SLO %.3fms", r.Latency.P50, slo.P50Ms)
		check(slo.P99Ms > 0 && r.Latency.P99 > slo.P99Ms,
			"p99 %.3fms exceeds SLO %.3fms", r.Latency.P99, slo.P99Ms)
		check(slo.P999Ms > 0 && r.Latency.P999 > slo.P999Ms,
			"p999 %.3fms exceeds SLO %.3fms", r.Latency.P999, slo.P999Ms)
	}
	check(slo.MaxErrorRate >= 0 && r.ErrorRate > slo.MaxErrorRate,
		"error rate %.4f exceeds SLO %.4f", r.ErrorRate, slo.MaxErrorRate)
	check(slo.MaxShedRate >= 0 && r.ShedRate > slo.MaxShedRate,
		"shed rate %.4f exceeds SLO %.4f", r.ShedRate, slo.MaxShedRate)
	check(slo.MaxTimeoutRate >= 0 && r.TimeoutRate > slo.MaxTimeoutRate,
		"timeout rate %.4f exceeds SLO %.4f", r.TimeoutRate, slo.MaxTimeoutRate)
	// A corrupt 200 is never acceptable: the daemon claimed success while
	// returning garbage, which no SLO knob can trade away.
	check(r.Corrupt200s > 0, "%d corrupt 200 responses", r.Corrupt200s)
	r.Pass = len(r.Violations) == 0
}

// validateSolveBody checks one 2xx /v1/solve body is a structurally coherent
// equilibrium summary — the corruption detector behind Config.Validate. A
// served record whose bytes rotted (or a truncated write) fails JSON decoding
// or the shape checks long before a human would notice.
func validateSolveBody(data []byte) error {
	var body struct {
		Converged *bool     `json:"converged"`
		Time      []float64 `json:"time"`
		Price     []float64 `json:"price"`
		Source    string    `json:"source"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&body); err != nil {
		return fmt.Errorf("loadgen: corrupt solve body: %w", err)
	}
	if body.Converged == nil {
		return fmt.Errorf("loadgen: solve body without converged field")
	}
	if len(body.Time) != len(body.Price) {
		return fmt.Errorf("loadgen: solve body with %d time samples and %d prices", len(body.Time), len(body.Price))
	}
	switch body.Source {
	case "surrogate", "cache", "store", "peer", "coalesced", "solve":
	default:
		return fmt.Errorf("loadgen: solve body with unknown source %q", body.Source)
	}
	return nil
}
