// Package serve is the equilibrium-serving daemon behind `mfgcp serve`: a
// long-running HTTP/JSON service that answers repeated mean-field equilibrium
// queries for drifting workloads — the workload the ROADMAP's "millions of
// users" north star implies, where SBS controllers re-solve the HJB–FPK fixed
// point continuously as popularity drifts instead of spawning one process per
// solve.
//
// The hot path amortises everything the engine layer built for exactly this
// purpose:
//
//   - a shared bounded LRU of answers: a warm repeat of a solved (params,
//     workload, grid, scheme) key answers without touching the solver. An
//     answer (surrogate.Answer) is the encoded record of what a /v1/solve
//     body carries — the sampled price, mean-control and q̄ paths plus
//     convergence diagnostics, a few KB — rendered once by the solve, so
//     every rung below the surrogate table holds and serves those bytes, not
//     equilibria;
//   - warm engine.Sessions pooled per solver configuration and shared by
//     a bounded worker pool, so steady traffic runs on pre-allocated PDE
//     workspaces and an idle daemon lets them go;
//   - singleflight coalescing: concurrent identical requests share one solve
//     (the mean-field equilibrium is unique, so one answer serves them all);
//   - load shedding: a full queue answers 429 + Retry-After instead of
//     building an unbounded backlog;
//   - per-request deadlines mapped onto engine.SolveContext, and graceful
//     drain: SIGTERM stops accepting work, finishes the in-flight requests
//     and exits cleanly.
//
// The surrogate tier (a table file named by Solver.Surrogate.Path) sits
// above the ladder as tier 0: an in-trust-region request is answered in
// microseconds by multilinear interpolation in a precomputed equilibrium
// table (source "surrogate", with the cell's measured error bound
// attached); everything else falls through to the exact ladder below.
//
// The durable tier (CacheDir) extends the ladder below the LRU: an LRU miss
// consults the append-only segment store (internal/store), promotes a hit
// back into the LRU, and every converged answer is persisted write-behind, so
// a restarted daemon answers its working set from disk instead of
// cold-starting the PDE path. Overload protection layers on top: a circuit
// breaker around engine solves fails fast with 503 once divergence/timeout
// failures streak, and a retry budget sheds marked retries before they storm
// the worker pool (see breaker.go).
//
// The cluster tier (Cluster) shards the keyspace across a fleet: a
// consistent-hash ring over the static -peers list assigns every canonical
// cache key an owner replica, and a replica that misses its LRU and store for
// a key it does not own fills from the owner via POST /v1/peer/get before
// solving cold. The owner runs the peer request through its own full ladder
// — including singleflight and the worker pool — so every cold solve for a
// key executes exactly once fleet-wide, no matter which replicas clients
// spray. Converged peer answers are promoted into the local LRU with source
// "peer"; an unreachable or slow owner degrades to a local cold solve (never
// an error), and /readyz-gated health probing reroutes its keys to the next
// ring member until it recovers.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/store"
	"repro/internal/surrogate"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when the solver queue is
// full: the caller should retry after a short backoff.
var ErrOverloaded = errors.New("serve: solver queue full")

// Config parametrises the daemon.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8080"; use ":0" in
	// tests to pick a free port).
	Addr string
	// Workers bounds the solver worker pool (default GOMAXPROCS). Workers
	// borrow warm engine sessions from one pool per solver configuration,
	// so session memory follows the solves running at once, and a session
	// left idle across two garbage collections is released.
	Workers int
	// QueueDepth bounds the pending-solve queue; a full queue sheds load
	// with 429 (default 64).
	QueueDepth int
	// CacheSize bounds the shared LRU of answers (default 256 entries).
	CacheSize int
	// DefaultTimeout bounds one solve when the request carries no
	// timeout_ms (default 30s); MaxTimeout caps what a request may ask for
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds the graceful drain: in-flight requests get this
	// long to finish after shutdown begins before their solves are
	// cancelled (default 30s).
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Params are the default model constants requests merge onto. A zero
	// value takes Solver.Params, and mec.Default() when that is zero too;
	// set both only to the same value.
	Params mec.Params
	// Solver is the default solver configuration requests resolve onto
	// (engine.Request.Resolve; zero value → engine.DefaultConfig(Params)).
	Solver engine.Config
	// Obs receives the serve.* metrics and, through the solver configs, the
	// engine.* and core.solver.* telemetry. Nil means no-op.
	Obs obs.Recorder
	// Registry, when set, additionally mounts /metrics, /debug/vars and
	// /debug/pprof on the daemon's mux (the PR-1 observability surface).
	Registry *obs.Registry
	// AccessLog receives one structured record per /v1/* request (request
	// ID, method, path, status, duration and the per-stage solver timings).
	// Nil disables access logging; metrics and request IDs stay on.
	AccessLog *slog.Logger
	// SlowRequestThreshold promotes access-log records of slower requests to
	// warning level and counts them in serve.request.slow (default 1s).
	SlowRequestThreshold time.Duration
	// CacheDir, when set, enables the persistent disk tier below the LRU: an
	// append-only segment store of converged answers that survives restarts
	// and SIGKILL (crash recovery truncates torn tails and skips corrupt
	// records). Empty disables the tier.
	CacheDir string
	// CacheDiskBytes bounds the disk tier (default 256 MiB); the oldest
	// segments are compacted away past it.
	CacheDiskBytes int64
	// Breaker configures the circuit breaker around engine solves (zero
	// value: trip after 5 consecutive divergence/timeout failures, fail fast
	// for 5s, one half-open probe). Failures < 0 disables it.
	Breaker BreakerConfig
	// RetryBudgetRatio is the retry-budget refill per fresh solve admitted
	// (default 0.1: retries may consume ~10% of solve capacity); negative
	// disables the budget. The budget starts full at its 20-token maximum.
	RetryBudgetRatio float64
	// Cluster configures the sharded-fleet tier: the static member list
	// (including this replica's own advertised URL), the ring geometry and
	// the peer-fill/probe timeouts. The zero value runs a single replica with
	// no peer tier.
	Cluster cluster.Config
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SlowRequestThreshold <= 0 {
		c.SlowRequestThreshold = time.Second
	}
	// Params and Solver.Params name the same defaults: a zero one takes the
	// other's value, and mec.Default() when both are zero.
	zero := mec.Params{}
	if c.Params == zero {
		c.Params = c.Solver.Params
	}
	if c.Params == zero {
		c.Params = mec.Default()
	}
	if c.Solver.NH == 0 && c.Solver.NQ == 0 {
		c.Solver = engine.DefaultConfig(c.Params)
	}
	if c.Solver.Params == zero {
		c.Solver.Params = c.Params
	}
	return c
}

// Server is the daemon state: the shared LRU of answers, the bounded worker
// pool and the singleflight table of in-flight solves.
type Server struct {
	cfg       Config
	rec       obs.Recorder
	cache     *engine.LRU[surrogate.Answer]
	store     *store.Store     // nil when CacheDir is unset
	surrogate *surrogate.Table // nil when the tier-0 table is disabled
	cluster   *cluster.Cluster // nil when the fleet tier is disabled
	breaker   *breaker
	retries   *retryBudget

	jobs     chan *flight
	mu       sync.Mutex
	inflight map[string]*flight
	fresh    map[net.Conn]struct{} // accepted connections without a request yet
	stopped  bool                  // jobs is closed: no flight may start
	// sessions holds the idle warm engine sessions, one sync.Pool per
	// solver configuration (engine.CacheKey(cfg, engine.Workload{})), for
	// the maxSessionConfigs configurations used last: any worker reuses any
	// idle session of its flight's configuration, and one idle across two
	// garbage collections is collected instead of pinned.
	sessions *engine.LRU[sync.Pool]

	// lifeCtx outlives the run context so SIGTERM drains in-flight solves
	// instead of cancelling them; lifeCancel fires only when the drain
	// budget is exhausted (or the server is fully stopped).
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	ready    atomic.Bool
	draining atomic.Bool
	workerWG sync.WaitGroup
}

// New validates the configuration and builds a server (not yet listening;
// call Run or Serve).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("serve: default params: %w", err)
	}
	if cfg.Solver.Params != cfg.Params {
		return nil, errors.New("serve: Params and Solver.Params are both set and differ; set one of them")
	}
	// The defaults every request resolves onto carry the daemon's recorder
	// and never a process-local warm start.
	cfg.Solver.Obs = obs.OrNop(cfg.Obs)
	cfg.Solver.WarmStart = nil
	if err := cfg.Solver.Validate(); err != nil {
		return nil, fmt.Errorf("serve: default solver config: %w", err)
	}
	cache, err := engine.NewLRU[surrogate.Answer](cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	sessions, err := engine.NewLRU[sync.Pool](maxSessionConfigs)
	if err != nil {
		return nil, err
	}
	var disk *store.Store
	if cfg.CacheDir != "" {
		disk, err = store.Open(store.Config{
			Dir:          cfg.CacheDir,
			MaxDiskBytes: cfg.CacheDiskBytes,
			Obs:          cfg.Obs,
			Log:          cfg.AccessLog,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: open cache dir: %w", err)
		}
	}
	var tab *surrogate.Table // tier 0, from Solver.Surrogate.Path when set
	if cfg.Solver.Surrogate.Path != "" {
		if tab, err = surrogate.Load(cfg.Solver.Surrogate.Path); err != nil {
			if disk != nil {
				_ = disk.Close()
			}
			return nil, fmt.Errorf("serve: load surrogate table: %w", err)
		}
	}
	var fleet *cluster.Cluster
	if cfg.Cluster.Enabled() {
		ccfg := cfg.Cluster
		if ccfg.Obs == nil {
			ccfg.Obs = cfg.Obs
		}
		if fleet, err = cluster.New(ccfg); err != nil {
			if disk != nil {
				_ = disk.Close()
			}
			return nil, err
		}
	}
	lifeCtx, lifeCancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		rec:        obs.OrNop(cfg.Obs),
		cache:      cache,
		store:      disk,
		surrogate:  tab,
		cluster:    fleet,
		breaker:    newBreaker(cfg.Breaker, cfg.Obs),
		retries:    newRetryBudget(cfg.RetryBudgetRatio),
		jobs:       make(chan *flight, cfg.QueueDepth),
		inflight:   make(map[string]*flight),
		fresh:      make(map[net.Conn]struct{}),
		sessions:   sessions,
		lifeCtx:    lifeCtx,
		lifeCancel: lifeCancel,
	}, nil
}

// Cache exposes the shared LRU of answers (tests use it).
func (s *Server) Cache() *engine.LRU[surrogate.Answer] { return s.cache }

// Store exposes the persistent disk tier (nil when CacheDir is unset); tests
// use it to flush and inspect the write-behind queue.
func (s *Server) Store() *store.Store { return s.store }

// Close releases resources owned by a server that never ran (New succeeded
// but Run/Serve was not reached); a served server cleans up in stop.
func (s *Server) Close() error {
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then drains.
// The returned error is nil on a clean drain.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		_ = s.Close()
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	return s.Serve(ctx, ln)
}

// Serve runs the daemon on an existing listener until ctx is cancelled, then
// drains: the HTTP server stops accepting work, in-flight requests (and their
// queued solves) get DrainTimeout to finish, and only past that budget are
// the remaining solves cancelled. Returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if s.cluster != nil {
		s.cluster.Start()
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second, ConnState: s.trackFresh}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	s.ready.Store(true)
	s.rec.Gauge("serve.ready", 1)

	select {
	case err := <-errCh:
		s.stop()
		return err
	case <-ctx.Done():
	}

	// Drain: flip readiness first so load balancers stop routing here, then
	// let the in-flight handlers (and the solves they wait on) finish.
	s.draining.Store(true)
	s.ready.Store(false)
	s.rec.Gauge("serve.ready", 0)
	s.rec.Add("serve.drains", 1)
	kill := time.AfterFunc(s.cfg.DrainTimeout, s.lifeCancel)
	defer kill.Stop()
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	// Shutdown closes idle connections at once but waits 5 s for one that
	// has not sent a request yet. No request on it is in flight, so close it
	// now, as trackFresh closes one accepted from here on.
	s.mu.Lock()
	for c := range s.fresh {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := srv.Shutdown(dctx)
	s.stop()
	if err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// trackFresh is the http.Server ConnState hook: it keeps the set of
// connections that have not sent a request yet, and closes one accepted
// during the drain.
func (s *Server) trackFresh(c net.Conn, st http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(s.fresh, c)
	case s.draining.Load():
		_ = c.Close()
	default:
		s.fresh[c] = struct{}{}
	}
}

// stop closes the solver pool, flushes the disk tier and releases the life
// context. Serve calls it exactly once.
func (s *Server) stop() {
	if s.cluster != nil {
		s.cluster.Stop()
	}
	// A handler the drain budget outlived may still reach the ladder; it
	// finds the pool stopped instead of sending on the closed queue.
	s.mu.Lock()
	s.stopped = true
	close(s.jobs)
	s.mu.Unlock()
	s.workerWG.Wait()
	if s.store != nil {
		// Workers are done, so no more Puts race the drain; Close empties the
		// write-behind queue and fsyncs every segment.
		if err := s.store.Close(); err != nil {
			s.rec.Add("serve.store.close.errors", 1)
		}
	}
	s.lifeCancel()
}

// flight is one in-flight equilibrium solve, shared by every request whose
// canonical key matches while it runs (singleflight).
type flight struct {
	key     string
	cfg     engine.Config
	w       engine.Workload
	timeout time.Duration
	// trace is the initiating request's stage accumulator (nil when that
	// request is untraced): the worker attaches it to the solve context so
	// the engine's HJB/FPK sweep timings attribute to the request that
	// triggered the computation. Coalesced joiners observe only their own
	// singleflight wait.
	trace *obs.ReqTrace

	enqueued  time.Time
	queueWait time.Duration // written by the worker before solving (done not yet closed)
	probe     bool          // this flight holds the breaker's half-open probe slot

	done      chan struct{}
	ans       *surrogate.Answer // the solve's answer, encoded once for every waiter
	err       error
	solveTime time.Duration
}

// solveOutcome annotates a solve result with how it was obtained; the
// handlers surface Source as the response's source field.
type solveOutcome struct {
	Source    Source // the ladder rung that answered
	SolveTime time.Duration
}

// solve answers one equilibrium query through the cache → store → peer →
// singleflight → worker-pool ladder. cfg must already be validated; ctx bounds
// only this caller's wait (the solve itself runs under the flight's own
// deadline so one impatient client cannot poison the shared result). isRetry
// marks a client-declared retry, which must pass the retry budget before it
// may start a fresh solve (cache, store, peer and coalesced answers stay
// free). docs carries the original client request documents for peer
// forwarding; nil disables the cluster tier for this call — peer-originated
// requests pass nil so a fill is answered locally and never re-forwarded.
func (s *Server) solve(ctx context.Context, cfg engine.Config, w engine.Workload, timeout time.Duration, isRetry bool, docs *cluster.PeerRequest) (*surrogate.Answer, solveOutcome, error) {
	tr := obs.ReqTraceFrom(ctx)
	key := engine.CacheKey(cfg, w)
	lookupStart := time.Now()
	ans, hit := s.cache.Get(s.rec, key)
	lookup := time.Since(lookupStart)
	s.rec.Observe("serve.cache.lookup.seconds", lookup.Seconds())
	tr.Observe("cache_lookup", lookup)
	if hit {
		return ans, solveOutcome{Source: SourceCache}, nil
	}
	if ans, ok := s.storeGet(key, tr); ok {
		return ans, solveOutcome{Source: SourceStore}, nil
	}
	if s.cluster != nil && docs != nil {
		if owner, self := s.cluster.Owner(key); self {
			s.rec.Add("cluster.owned", 1)
		} else {
			s.rec.Add("cluster.forwarded", 1)
			if ans, ok := s.peerFill(ctx, owner, key, *docs, timeout, tr); ok {
				return ans, solveOutcome{Source: SourcePeer}, nil
			}
			// The owner could not answer (down, slow, drifted, or returned
			// garbage): degrade to a local cold solve below — availability
			// beats perfect fleet-wide dedup.
		}
	}

	s.mu.Lock()
	f, joined := s.inflight[key]
	if !joined {
		// A flight for this key may have finished since the lookup above:
		// it put its answer in the LRU before leaving inflight, so look
		// again under the lock before starting a second solve. Only the hit
		// is counted; the miss above already was.
		if ans, hit := s.cache.Get(nil, key); hit {
			s.mu.Unlock()
			s.rec.Add("engine.cache.hit", 1)
			return ans, solveOutcome{Source: SourceCache}, nil
		}
		if s.stopped {
			s.mu.Unlock()
			return nil, solveOutcome{}, fmt.Errorf("serve: solver pool stopped: %w", context.Canceled)
		}
		// This request is about to trigger a fresh engine solve: the overload
		// defences gate here, not earlier, so reads and coalesced joins keep
		// serving while the solver is protected.
		if !s.retries.admit(isRetry) {
			s.mu.Unlock()
			s.rec.Add("serve.retry.denied", 1)
			return nil, solveOutcome{}, ErrRetryBudget
		}
		probe, retryAfter, ok := s.breaker.Allow()
		if !ok {
			s.mu.Unlock()
			s.rec.Add("serve.breaker.rejected", 1)
			return nil, solveOutcome{}, &breakerOpenError{retryAfter: retryAfter}
		}
		f = &flight{key: key, cfg: cfg, w: w, timeout: timeout, trace: tr,
			probe: probe, enqueued: time.Now(), done: make(chan struct{})}
		select {
		case s.jobs <- f:
			s.inflight[key] = f
		default:
			s.mu.Unlock()
			s.breaker.abortProbe(probe)
			s.rec.Add("serve.solve.shed", 1)
			return nil, solveOutcome{}, ErrOverloaded
		}
	}
	s.mu.Unlock()
	out := solveOutcome{Source: SourceSolve}
	if joined {
		out.Source = SourceCoalesced
		s.rec.Add("serve.solve.coalesced", 1)
	}

	waitStart := time.Now()
	select {
	case <-f.done:
		wait := time.Since(waitStart)
		if joined {
			// This request rode someone else's computation: its only solver
			// cost is the wait on the shared flight.
			s.rec.Observe("serve.singleflight.wait.seconds", wait.Seconds())
			tr.Observe("singleflight_wait", wait)
		} else {
			tr.Observe("queue_wait", f.queueWait)
			tr.Observe("solve", f.solveTime)
		}
		out.SolveTime = f.solveTime
		return f.ans, out, f.err
	case <-ctx.Done():
		s.rec.Add("serve.solve.abandoned", 1)
		return nil, out, fmt.Errorf("serve: request abandoned: %w", ctx.Err())
	}
}

// storeGet consults the persistent tier after an LRU miss and promotes a hit
// back into the LRU so the next repeat is a memory hit. The record's bytes
// are the answer: DecodeAnswer validates them and the hit serves them. A
// record that does not decode as an answer is treated as a miss and
// forgotten, so the re-solve's answer supersedes it (the store already
// refuses CRC-invalid bytes, so such a record is in a format this build
// cannot read, such as a newer build's or an older build's equilibrium
// archive, not corrupt).
func (s *Server) storeGet(key string, tr *obs.ReqTrace) (*surrogate.Answer, bool) {
	if s.store == nil {
		return nil, false
	}
	start := time.Now()
	blob, ok := s.store.Get(key)
	var ans *surrogate.Answer
	if ok {
		var err error
		if ans, err = surrogate.DecodeAnswer(blob); err != nil {
			s.rec.Add("serve.store.decode.errors", 1)
			s.store.Forget(key)
			ok = false
		}
	}
	dur := time.Since(start)
	s.rec.Observe("serve.store.lookup.seconds", dur.Seconds())
	tr.Observe("store_lookup", dur)
	if !ok {
		return nil, false
	}
	s.cache.Put(s.rec, key, ans)
	return ans, true
}

// peerFill asks the key's ring owner for the answer via /v1/peer/get.
// Returns ok=false on any failure — timeout, refusal, a body that is not an
// answer, or a decode error — in which case the caller degrades to its local
// solve ladder; a peer problem must never surface as a client-visible error.
// Only converged answers are promoted into the local LRU: a non-converged
// partial is served to the client that asked (matching local ladder
// semantics) but caching it would replay an unconverged fixed point to every
// future repeat.
func (s *Server) peerFill(ctx context.Context, owner, key string, preq cluster.PeerRequest, timeout time.Duration, tr *obs.ReqTrace) (*surrogate.Answer, bool) {
	preq.Key = key
	preq.TimeoutMs = timeout.Milliseconds()
	start := time.Now()
	ans, _, err := s.cluster.Fetch(ctx, owner, preq)
	dur := time.Since(start)
	s.rec.Observe("cluster.peer.seconds", dur.Seconds())
	tr.Observe("peer_fill", dur)
	if err != nil {
		s.rec.Add("cluster.peer_miss", 1)
		return nil, false
	}
	s.rec.Add("cluster.peer_hit", 1)
	if ans.Converged() {
		s.cache.Put(s.rec, key, ans)
	}
	return ans, true
}

// maxSessionConfigs bounds the solver configurations the session pool
// holds: serving traffic overwhelmingly repeats a handful of grid
// configurations, and a session's buffers are the dominant per-config cost.
const maxSessionConfigs = 4

// sessionPool returns the pool of idle warm sessions for one solver
// configuration. A new configuration beyond maxSessionConfigs evicts the
// least recently used one's pool (counted in serve.session.reset); a session
// lent out of it at that moment goes back to the evicted pool and is
// collected with it.
func (s *Server) sessionPool(key string) *sync.Pool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.sessions.Get(nil, key); ok {
		return p
	}
	if s.sessions.Len() == maxSessionConfigs {
		s.rec.Add("serve.session.reset", 1)
	}
	p := new(sync.Pool)
	s.sessions.Put(nil, key, p)
	return p
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for f := range s.jobs {
		s.runFlight(f)
	}
}

// runFlight executes one coalesced solve on a warm session of its
// configuration and publishes its answer to every waiter. The equilibrium
// itself is dropped here: its answer is encoded once, and those bytes are
// served, cached and persisted.
func (s *Server) runFlight(f *flight) {
	defer func() {
		s.mu.Lock()
		delete(s.inflight, f.key)
		s.mu.Unlock()
		close(f.done)
	}()

	// Sessions are pooled per distinct solver configuration: the workload
	// varies per solve, the buffers do not.
	pool := s.sessionPool(engine.CacheKey(f.cfg, engine.Workload{}))
	sess, _ := pool.Get().(*engine.Session)
	if sess == nil {
		var err error
		sess, err = engine.NewSession(f.cfg)
		if err != nil {
			f.err = err
			// The solve never ran; a config that cannot build a session says
			// nothing about solver health, so release the probe slot unjudged.
			s.breaker.abortProbe(f.probe)
			return
		}
		s.rec.Add("serve.session.built", 1)
	}

	f.queueWait = time.Since(f.enqueued)
	s.rec.Observe("serve.queue.wait.seconds", f.queueWait.Seconds())

	ctx := s.lifeCtx
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	if f.trace != nil {
		// The solve runs under the daemon's life context, not the request's;
		// re-attach the initiator's trace so the engine's stage timings
		// reach its access-log record.
		ctx = obs.WithReqTrace(ctx, f.trace)
	}
	s.rec.Add("serve.solve.executed", 1)
	start := time.Now()
	eq, err := sess.SolveContext(ctx, f.w, nil)
	f.solveTime = time.Since(start)
	// The equilibrium is the solve's own copy, and SolveContext leaves the
	// session reusable whatever the outcome, so it goes back at once.
	pool.Put(sess)
	s.rec.Observe("serve.solve.seconds", f.solveTime.Seconds())
	f.err = err
	s.breaker.onResult(classifySolve(err), f.probe)
	if eq != nil {
		var encErr error
		if f.ans, encErr = surrogate.EncodeAnswer(surrogate.Summarize(eq)); encErr != nil {
			// A non-finite answer has no JSON form: it fails its requests
			// as an internal error.
			f.err = encErr
		}
	}
	if f.err == nil && f.ans != nil && f.ans.Converged() {
		s.cache.Put(s.rec, f.key, f.ans)
		s.persist(f.key, f.ans)
	}
}

// classifySolve maps a solve error onto breaker evidence: divergence and
// deadlines are solver failures, a drain cancellation and a request that
// breaks the explicit scheme's CFL bound are neutral, and ErrNotConverged is
// a served 200 (success as far as solver health goes).
func classifySolve(err error) solveVerdict {
	switch {
	case err == nil, errors.Is(err, engine.ErrNotConverged):
		return verdictSuccess
	case errors.Is(err, context.Canceled), errors.As(err, new(*pde.ErrCFLViolation)):
		return verdictNeutral
	default:
		return verdictFailure
	}
}

// persist hands one converged answer's record to the disk tier,
// write-behind. Only converged answers ever reach the store: a
// non-converged partial answer is a 200 for the client that asked, but
// persisting it would replay an unconverged fixed point to every future
// restart.
func (s *Server) persist(key string, ans *surrogate.Answer) {
	if s.store != nil {
		s.store.Put(key, ans.Record())
	}
}

// clampTimeout resolves a request's timeout_ms against the server bounds.
func (s *Server) clampTimeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}
