package serve

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock drives the breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(t *testing.T, cfg BreakerConfig) (*breaker, *fakeClock, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(cfg, reg)
	b.now = clk.now
	return b, clk, reg
}

// TestBreakerStateMachine walks the full closed → open → half-open → closed
// cycle and pins the transition telemetry.
func TestBreakerStateMachine(t *testing.T) {
	b, clk, reg := testBreaker(t, BreakerConfig{Failures: 2, OpenFor: time.Minute})

	// Closed admits freely; failures below the threshold stay closed.
	if _, _, ok := b.Allow(); !ok {
		t.Fatal("closed breaker rejected a solve")
	}
	b.onResult(verdictFailure, false)
	if _, _, ok := b.Allow(); !ok {
		t.Fatal("one failure below threshold opened the breaker")
	}

	// The second consecutive failure trips it.
	b.onResult(verdictFailure, false)
	probe, retryAfter, ok := b.Allow()
	if ok || probe {
		t.Fatalf("open breaker admitted a solve (probe=%v ok=%v)", probe, ok)
	}
	if retryAfter <= 0 || retryAfter > time.Minute {
		t.Errorf("open rejection retryAfter = %v, want (0, 1m]", retryAfter)
	}

	// Past OpenFor the first caller gets the half-open probe; the second is
	// still rejected.
	clk.advance(61 * time.Second)
	probe, _, ok = b.Allow()
	if !ok || !probe {
		t.Fatalf("half-open window did not grant a probe (probe=%v ok=%v)", probe, ok)
	}
	if _, _, ok := b.Allow(); ok {
		t.Fatal("second caller was admitted alongside the probe")
	}

	// A failing probe re-opens and restarts the timer.
	b.onResult(verdictFailure, true)
	if _, _, ok := b.Allow(); ok {
		t.Fatal("breaker closed after a failed probe")
	}
	clk.advance(61 * time.Second)
	probe, _, ok = b.Allow()
	if !ok || !probe {
		t.Fatal("no probe after the re-opened window elapsed")
	}

	// A succeeding probe closes the breaker again.
	b.onResult(verdictSuccess, true)
	if probe, _, ok := b.Allow(); !ok || probe {
		t.Fatalf("breaker not closed after probe success (probe=%v ok=%v)", probe, ok)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["breaker.open"]; got != 2 {
		t.Errorf("breaker.open = %g, want 2", got)
	}
	if got := snap.Counters["breaker.halfopen"]; got != 2 {
		t.Errorf("breaker.halfopen = %g, want 2", got)
	}
	if got := snap.Counters["breaker.close"]; got != 1 {
		t.Errorf("breaker.close = %g, want 1", got)
	}
	if got := snap.Gauges["breaker.state"]; got != 0 {
		t.Errorf("breaker.state gauge = %g, want 0 (closed)", got)
	}
}

// TestBreakerEvidenceRules pins what counts as breaker evidence: successes
// reset the streak, neutral outcomes (drain cancellations) count neither way.
func TestBreakerEvidenceRules(t *testing.T) {
	b, _, _ := testBreaker(t, BreakerConfig{Failures: 2, OpenFor: time.Minute})

	// failure, success, failure: the streak broke, stays closed.
	b.onResult(verdictFailure, false)
	b.onResult(verdictSuccess, false)
	b.onResult(verdictFailure, false)
	if _, _, ok := b.Allow(); !ok {
		t.Fatal("a broken failure streak opened the breaker")
	}

	// failure, neutral, failure: neutral is not a success, the streak holds.
	b.onResult(verdictNeutral, false)
	b.onResult(verdictFailure, false)
	if _, _, ok := b.Allow(); ok {
		t.Fatal("neutral outcome reset the failure streak")
	}
}

// TestBreakerAbortProbe checks a shed probe releases its slot so the next
// caller can still probe the half-open window.
func TestBreakerAbortProbe(t *testing.T) {
	b, clk, _ := testBreaker(t, BreakerConfig{Failures: 1, OpenFor: time.Second})
	b.onResult(verdictFailure, false)
	clk.advance(2 * time.Second)
	probe, _, ok := b.Allow()
	if !ok || !probe {
		t.Fatal("no probe granted")
	}
	b.abortProbe(probe)
	if probe, _, ok := b.Allow(); !ok || !probe {
		t.Fatal("aborted probe slot was not released")
	}
}

// TestBreakerDisabled checks Failures < 0 turns the breaker into a pass.
func TestBreakerDisabled(t *testing.T) {
	b, _, _ := testBreaker(t, BreakerConfig{Failures: -1})
	for i := 0; i < 20; i++ {
		b.onResult(verdictFailure, false)
		if _, _, ok := b.Allow(); !ok {
			t.Fatal("disabled breaker rejected a solve")
		}
	}
}

// TestRetryBudget pins the token accounting: retries spend, fresh traffic
// refills at the configured ratio, and a dry budget rejects retries only.
func TestRetryBudget(t *testing.T) {
	b := newRetryBudget(0.5)
	for i := 0; i < retryBurst; i++ {
		if !b.admit(true) {
			t.Fatalf("burst token %d not spendable", i)
		}
	}
	if b.admit(true) {
		t.Fatal("dry budget admitted a retry")
	}
	if !b.admit(false) {
		t.Fatal("fresh request rejected")
	}
	if b.admit(true) {
		t.Fatal("half a token admitted a retry")
	}
	b.admit(false)
	if !b.admit(true) {
		t.Fatal("refilled budget rejected a retry")
	}

	var disabled *retryBudget
	if !disabled.admit(true) {
		t.Fatal("disabled (nil) budget rejected a retry")
	}
	if newRetryBudget(-1) != nil {
		t.Fatal("negative ratio did not disable the budget")
	}
}

// TestRetryAfterJitter pins the Retry-After rendering: whole seconds, at
// least the base (rounded up, never below 1), at most base+3, and actually
// jittered across draws so a synchronised fleet spreads out.
func TestRetryAfterJitter(t *testing.T) {
	for _, tc := range []struct {
		base     time.Duration
		min, max int64
	}{
		{0, 1, 4},
		{time.Second, 1, 4},
		{1500 * time.Millisecond, 2, 5},
		{5 * time.Second, 5, 8},
	} {
		seen := map[int64]bool{}
		for i := 0; i < 200; i++ {
			v, err := strconv.ParseInt(retryAfterSeconds(tc.base), 10, 64)
			if err != nil {
				t.Fatalf("base %v: non-integer Retry-After: %v", tc.base, err)
			}
			if v < tc.min || v > tc.max {
				t.Fatalf("base %v: Retry-After %d outside [%d, %d]", tc.base, v, tc.min, tc.max)
			}
			seen[v] = true
		}
		if len(seen) < 2 {
			t.Errorf("base %v: 200 draws produced no jitter (all %v)", tc.base, seen)
		}
	}
}
