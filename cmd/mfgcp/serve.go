package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	mfgcp "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveCmd implements `mfgcp serve`: the long-running equilibrium-serving
// daemon. It answers POST /v1/solve (one equilibrium summary per workload)
// and POST /v1/policy/epoch (batch per-content strategies via MFG-CP), plus
// GET /healthz, /readyz and — whenever telemetry is on — /metrics,
// /debug/vars and /debug/pprof on the same port.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting work,
// in-flight solves finish within -drain-timeout, and the process exits 0.
func serveCmd(args []string) (retErr error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "solver worker pool size (0 = one per CPU)")
	queue := fs.Int("queue", 64, "pending-solve queue depth (a full queue sheds with 429)")
	eqCache := fs.Int("eq-cache", 256, "equilibrium cache capacity (entries)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request solve deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "upper bound on request-supplied deadlines")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	slowThreshold := fs.Duration("slow", time.Second, "access-log slow-request threshold (warn level + stage breakdown)")
	cacheDir := fs.String("cache-dir", "", "persistent equilibrium cache directory (empty = memory-only; survives restarts and SIGKILL)")
	cacheDiskBytes := fs.Int64("cache-disk-bytes", 256<<20, "disk budget for -cache-dir; oldest segments compact away past it")
	breakerFailures := fs.Int("breaker-failures", 5, "consecutive solve failures that open the circuit breaker (-1 disables)")
	breakerOpen := fs.Duration("breaker-open", 5*time.Second, "how long an open breaker fails fast (503) before a half-open probe")
	retryBudget := fs.Float64("retry-budget", 0.1, "retry-budget refill per fresh solve (X-Mfgcp-Retry requests draw from it; -1 disables)")
	configPath := fs.String("config", "", "JSON defaults for Params/Solver (same shape as a /v1/solve body)")
	surrogatePath := fs.String("surrogate", "", "precomputed surrogate table (see mfgcp precompute); in-region solves answer from it as tier 0")
	surrogateMaxBound := fs.Float64("surrogate-max-bound", 0, "reject surrogate answers whose declared error bound exceeds this (0 = any in-region bound)")
	peers := fs.String("peers", "", "comma-separated fleet member base URLs (including this replica); enables consistent-hash routing and peer cache-fill")
	advertise := fs.String("advertise", "", "this replica's own base URL as it appears in -peers (default http://<addr>)")
	peerTimeout := fs.Duration("peer-timeout", 10*time.Second, "peer cache-fill round-trip bound; an expired fill degrades to a local solve")
	peerProbe := fs.Duration("peer-probe", time.Second, "peer /readyz health-probe interval")
	ringVnodes := fs.Int("ring-vnodes", 0, "virtual nodes per ring member (0 = default 128)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel, err := of.setup()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := tel.finish(); ferr != nil && retErr == nil {
			retErr = fmt.Errorf("telemetry: %w", ferr)
		}
	}()

	solver, err := readSolverDefaults(*configPath)
	if err != nil {
		return err
	}
	// Explicit flags win over the -config file.
	set := setFlags(fs)
	if set["surrogate"] {
		solver.Surrogate.Path = *surrogatePath
	}
	if set["surrogate-max-bound"] {
		solver.Surrogate.MaxErrorBound = *surrogateMaxBound
	}
	if solver, err = mfgcp.ApplySolveOptions(solver); err != nil {
		return err
	}

	// Fleet membership: -peers lists every replica (self included); -advertise
	// names this one. A listen address like ":8080" has no routable host, so
	// the default advertised URL substitutes loopback — fine for local fleets;
	// Kubernetes pods pass their stable DNS name explicitly.
	var ccfg cluster.Config
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				ccfg.Peers = append(ccfg.Peers, p)
			}
		}
		self := *advertise
		if self == "" {
			if strings.HasPrefix(*addr, ":") {
				self = "http://127.0.0.1" + *addr
			} else {
				self = "http://" + *addr
			}
		}
		ccfg.Self = self
		ccfg.PeerTimeout = *peerTimeout
		ccfg.ProbeInterval = *peerProbe
		ccfg.VirtualNodes = *ringVnodes
	}

	// The daemon always runs a live registry — the serve.* metrics are part
	// of its API surface — reusing the telemetry one when the obs flags
	// already built it.
	reg := tel.reg
	if reg == nil {
		reg = obs.NewRegistry(nil)
	}
	// The daemon exports Go runtime health (goroutines, heap, GC pauses)
	// alongside its own metrics; batch runs keep snapshots deterministic.
	reg.SetRuntimeMetrics(true)

	srv, err := serve.New(serve.Config{
		Addr:                 *addr,
		Workers:              *workers,
		QueueDepth:           *queue,
		CacheSize:            *eqCache,
		DefaultTimeout:       *timeout,
		MaxTimeout:           *maxTimeout,
		DrainTimeout:         *drainTimeout,
		SlowRequestThreshold: *slowThreshold,
		AccessLog:            tel.logger,
		Params:               solver.Params,
		Solver:               solver,
		Obs:                  reg,
		Registry:             reg,
		CacheDir:             *cacheDir,
		CacheDiskBytes:       *cacheDiskBytes,
		Breaker:              serve.BreakerConfig{Failures: *breakerFailures, OpenFor: *breakerOpen},
		RetryBudgetRatio:     *retryBudget,
		Cluster:              ccfg,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "mfgcp serve: listening on %s (workers=%d queue=%d cache=%d)\n",
		*addr, nWorkers, *queue, *eqCache)
	if solver.Surrogate.Path != "" {
		fmt.Fprintf(os.Stderr, "mfgcp serve: tier-0 surrogate table %s\n", solver.Surrogate.Path)
	}
	if ccfg.Enabled() {
		fmt.Fprintf(os.Stderr, "mfgcp serve: fleet member %s of %d peers\n", ccfg.Self, len(ccfg.Peers))
	}
	if err := srv.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "mfgcp serve: drained cleanly")
	return tel.summary("serve")
}
