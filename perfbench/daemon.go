package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"time"

	mfgcp "repro"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
)

// solverConfig is the solver configuration `mfgcp serve` resolves requests
// against when no -config file is given.
func solverConfig() (engine.Config, error) {
	return mfgcp.ApplySolveOptions(mfgcp.DefaultSolverConfig(mfgcp.DefaultParams()))
}

// daemonFlags are the `mfgcp serve` flags the benchmark sets; every other
// flag keeps its default.
type daemonFlags struct {
	eqCache   int          // -eq-cache
	cacheDir  string       // -cache-dir
	surrogate string       // -surrogate
	peers     []string     // -peers (with -advertise self)
	self      string       // -advertise
	accessLog *accessLog   // the obs flags' logger; nil leaves access logging off
	ln        net.Listener // the loopback listener -addr would open
}

// daemon is one in-process `mfgcp serve` replica on a loopback listener.
type daemon struct {
	srv  *serve.Server
	reg  *obs.Registry
	url  string
	stop context.CancelFunc
	done chan error
}

// startDaemon builds the daemon exactly as `mfgcp serve` does for the given
// flags — live registry, runtime metrics on — and serves it on f.ln.
func startDaemon(f daemonFlags) (*daemon, error) {
	solver, err := solverConfig()
	if err != nil {
		return nil, err
	}
	solver.Surrogate.Path = f.surrogate
	var ccfg cluster.Config
	if len(f.peers) > 0 {
		ccfg = cluster.Config{Peers: f.peers, Self: f.self, PeerTimeout: 10 * time.Second, ProbeInterval: time.Second}
	}
	reg := obs.NewRegistry(nil)
	reg.SetRuntimeMetrics(true)
	var logger *slog.Logger
	if f.accessLog != nil {
		logger = slog.New(f.accessLog)
	}
	eqCache := f.eqCache
	if eqCache == 0 {
		eqCache = 256
	}
	srv, err := serve.New(serve.Config{
		Addr:                 f.ln.Addr().String(),
		QueueDepth:           64,
		CacheSize:            eqCache,
		DefaultTimeout:       30 * time.Second,
		MaxTimeout:           2 * time.Minute,
		DrainTimeout:         30 * time.Second,
		SlowRequestThreshold: time.Second,
		AccessLog:            logger,
		Params:               solver.Params,
		Solver:               solver,
		Obs:                  reg,
		Registry:             reg,
		CacheDir:             f.cacheDir,
		CacheDiskBytes:       256 << 20,
		Breaker:              serve.BreakerConfig{Failures: 5, OpenFor: 5 * time.Second},
		RetryBudgetRatio:     0.1,
		Cluster:              ccfg,
	})
	if err != nil {
		f.ln.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: srv, reg: reg, url: "http://" + f.ln.Addr().String(), stop: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ctx, f.ln) }()
	return d, nil
}

// close drains the daemon and waits until Serve has returned.
func (d *daemon) close() error {
	d.stop()
	return <-d.done
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// counters sums the registry counters of a set of daemons.
func counters(ds []*daemon) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range ds {
		for name, v := range d.reg.Snapshot().Counters {
			out[name] += v
		}
	}
	return out
}

func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// accessRecord is one access-log record of a /v1 request.
type accessRecord struct {
	ID     string
	Path   string
	DurMs  float64
	Stages map[string]float64 // timed stage → ms
}

// accessLog is an slog.Handler that keeps the daemons' access-log records in
// memory for the traced run.
type accessLog struct {
	mu   sync.Mutex
	recs []accessRecord
}

func (a *accessLog) Enabled(context.Context, slog.Level) bool { return true }
func (a *accessLog) WithAttrs([]slog.Attr) slog.Handler       { return a }
func (a *accessLog) WithGroup(string) slog.Handler            { return a }

func (a *accessLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "request" && r.Message != "slow request" {
		return nil
	}
	rec := accessRecord{Stages: make(map[string]float64)}
	r.Attrs(func(at slog.Attr) bool {
		switch at.Key {
		case "request_id":
			rec.ID = at.Value.String()
		case "path":
			rec.Path = at.Value.String()
		case "duration_ms":
			rec.DurMs = at.Value.Float64()
		case "method", "status", "bytes", "slow_threshold_ms":
		default:
			if stage, ok := strings.CutSuffix(at.Key, "_ms"); ok && at.Value.Kind() == slog.KindFloat64 {
				rec.Stages[stage] = at.Value.Float64()
			}
		}
		return true
	})
	a.mu.Lock()
	a.recs = append(a.recs, rec)
	a.mu.Unlock()
	return nil
}

// byID indexes the records of one path by request ID; a repeated ID is an
// error, since the generator gives every request its own.
func (a *accessLog) byID(path string) (map[string]accessRecord, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]accessRecord)
	for _, r := range a.recs {
		if r.Path != path {
			continue
		}
		if _, dup := out[r.ID]; dup {
			return nil, fmt.Errorf("access log: request ID %s logged twice on %s", r.ID, path)
		}
		out[r.ID] = r
	}
	return out, nil
}
