package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// The circuit breaker guards the engine worker pool against failure storms:
// when solves start diverging or timing out en masse (a poisoned workload, a
// grid too hard for the deadline, a saturated host), pushing more of them
// into the pool only burns worker time that healthy requests need. The
// breaker watches the terminal outcome of every executed solve and, past a
// run of failures, fails fast with 503 + Retry-After instead of queueing
// doomed work. Cache and store hits keep serving while the breaker is open —
// it protects the solver, not the read path.
//
// State machine:
//
//	closed ──(Failures consecutive solve failures)──▶ open
//	open ──(OpenFor elapsed)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open (timer restarts)
//
// Half-open admits one probe solve at a time; everything else keeps failing
// fast until the probe lands. Only divergence and deadline failures
// count — ErrNotConverged is a served 200 and a client-abandoned wait says
// nothing about solver health.

// BreakerConfig parametrises the solve circuit breaker.
type BreakerConfig struct {
	// Failures is the consecutive solve-failure count that opens the breaker
	// (default 5). Negative disables the breaker entirely.
	Failures int
	// OpenFor is how long an open breaker rejects solves before letting a
	// half-open probe through (default 5s).
	OpenFor time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Failures == 0 {
		c.Failures = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	return c
}

// ErrBreakerOpen is mapped to HTTP 503 + Retry-After: the solver pool is
// failing fast after a failure storm; the caller should back off until the
// half-open probe window.
var ErrBreakerOpen = errors.New("serve: circuit breaker open, solver failing fast")

// breakerOpenError carries the suggested retry delay of one rejection.
type breakerOpenError struct{ retryAfter time.Duration }

func (e *breakerOpenError) Error() string {
	return fmt.Sprintf("%v (retry in %s)", ErrBreakerOpen, e.retryAfter.Round(time.Millisecond))
}
func (e *breakerOpenError) Unwrap() error { return ErrBreakerOpen }

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is the runtime state machine. The now hook makes transitions
// deterministic under test.
type breaker struct {
	cfg BreakerConfig
	rec obs.Recorder
	now func() time.Time

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // start of the current open window
	probing  bool      // a half-open probe is in flight
}

func newBreaker(cfg BreakerConfig, rec obs.Recorder) *breaker {
	return &breaker{cfg: cfg.withDefaults(), rec: obs.OrNop(rec), now: time.Now}
}

// disabled reports whether the breaker is configured off.
func (b *breaker) disabled() bool { return b.cfg.Failures < 0 }

// Allow decides whether a new engine solve may start. probe reports that the
// caller holds a half-open probe slot and must release it through onResult
// (or abort). When the solve is rejected, retryAfter is the time left until
// the next half-open window.
func (b *breaker) Allow() (probe bool, retryAfter time.Duration, ok bool) {
	if b.disabled() {
		return false, 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return false, 0, true
	case breakerOpen:
		if wait := b.openedAt.Add(b.cfg.OpenFor).Sub(b.now()); wait > 0 {
			return false, wait, false
		}
		b.setStateLocked(breakerHalfOpen)
		fallthrough
	default: // half-open
		if !b.probing {
			b.probing = true
			b.rec.Add("breaker.probes", 1)
			return true, 0, true
		}
		// The probe is out; everyone else waits a full window.
		return false, b.cfg.OpenFor, false
	}
}

// abortProbe releases a probe slot whose solve never started (e.g. the queue
// shed it).
func (b *breaker) abortProbe(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// onResult feeds one executed solve's terminal outcome back: failure is a
// divergence or deadline, neutral is a shutdown cancellation (says nothing),
// anything else is a success.
func (b *breaker) onResult(outcome solveVerdict, probe bool) {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch outcome {
	case verdictNeutral:
		// A drain-cancelled solve is no evidence either way.
	case verdictFailure:
		switch b.state {
		case breakerHalfOpen:
			b.openedAt = b.now()
			b.setStateLocked(breakerOpen)
		case breakerClosed:
			b.fails++
			if b.fails >= b.cfg.Failures {
				b.openedAt = b.now()
				b.setStateLocked(breakerOpen)
			}
		}
	default: // success
		b.fails = 0
		if b.state == breakerHalfOpen {
			b.setStateLocked(breakerClosed)
		}
	}
}

// setStateLocked transitions the state machine and publishes the telemetry
// (gauge 0=closed, 1=open, 2=half-open; one counter per transition kind).
func (b *breaker) setStateLocked(next breakerState) {
	if b.state == next {
		return
	}
	b.state = next
	switch next {
	case breakerOpen:
		b.fails = 0
		b.rec.Add("breaker.open", 1)
	case breakerHalfOpen:
		b.rec.Add("breaker.halfopen", 1)
	case breakerClosed:
		b.rec.Add("breaker.close", 1)
	}
	b.rec.Gauge("breaker.state", float64(map[breakerState]int{
		breakerClosed: 0, breakerOpen: 1, breakerHalfOpen: 2,
	}[next]))
}

// solveVerdict classifies one executed solve for the breaker.
type solveVerdict int

const (
	verdictSuccess solveVerdict = iota
	verdictFailure
	verdictNeutral
)

// retryBudget is the daemon's defence against retry storms: clients marking
// their requests with X-Mfgcp-Retry draw from a token budget that refills at
// Ratio tokens per fresh (non-retry) solve admitted, so retries can consume
// at most ~Ratio of the pool's capacity. When the budget is dry, retries are
// shed immediately with 429 instead of competing with first-attempt traffic
// for workers — the storm starves itself, not the pool.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
}

// retryBurst is a retry budget's initial and maximum token balance.
const retryBurst = 20

// newRetryBudget builds a full budget of retryBurst tokens refilling at
// ratio per fresh request. ratio < 0 disables the budget (nil receiver
// admits everything).
func newRetryBudget(ratio float64) *retryBudget {
	if ratio < 0 {
		return nil
	}
	if ratio == 0 {
		ratio = 0.1
	}
	return &retryBudget{tokens: retryBurst, ratio: ratio}
}

// admit charges the budget: fresh requests refill it and always pass, retry
// requests consume one token or are rejected.
func (b *retryBudget) admit(isRetry bool) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !isRetry {
		b.tokens = min(retryBurst, b.tokens+b.ratio)
		return true
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// ErrRetryBudget is mapped to HTTP 429: the retry budget is exhausted, so a
// marked retry is shed before it reaches the solver pool.
var ErrRetryBudget = errors.New("serve: retry budget exhausted")
