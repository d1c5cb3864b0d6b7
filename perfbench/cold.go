package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

// Cold workload sizing. A cold solve on the default grid takes about 0.5–1 s
// of one core, so coldPerSecond requests per --seconds keep the closed loop
// busy for about that long on two cores. The request count depends only on
// --seconds: a faster solver finishes the same sequence sooner instead of
// solving (and caching) more of it.
const (
	coldPerSecond = 2
	coldSetups    = 3 // set-ups per run; setup_s is their median
	coldChecks    = 2 // timed keys re-solved directly and compared
)

// runCold replays a seeded sequence of distinct trace keys through one
// daemon with a closed loop of o.conns connections: every answer is a fresh
// solve.
func runCold(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	cfg, err := solverConfig()
	if err != nil {
		return nil, err
	}
	n := coldPerSecond * o.seconds
	epochs := (n+o.conns)/20 + 2
	u, err := traceUniverse(o.seed, epochs, n+o.conns, cfg)
	if err != nil {
		return nil, err
	}
	timed := make([]call, n)
	for i := range timed {
		timed[i] = call{Key: i}
	}
	warm := make([]call, o.conns)
	for i := range warm {
		warm[i] = call{Key: n + i}
	}
	chk := newChecker(cfg.Params)

	// Set-up: start the daemon on a fresh store and send one warm-up solve per
	// worker, several times; the last daemon serves the timed phase.
	var (
		d      *daemon
		log    *accessLog
		dir    string
		setups []float64
		setupT = &tally{Sources: map[serve.Source]int64{}}
	)
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	for i := 0; i < coldSetups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			d = nil
			os.RemoveAll(dir)
		}
		start := time.Now()
		if dir, err = os.MkdirTemp(o.tmp, "cold-store-"); err != nil {
			return nil, err
		}
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		log = nil
		if o.traced {
			log = &accessLog{}
		}
		if d, err = startDaemon(daemonFlags{cacheDir: dir, accessLog: log, ln: ln}); err != nil {
			return nil, err
		}
		g := newGenerator([]string{d.url}, u.bodies, o.conns)
		replies := g.run(ctx, "setup", warm, o.conns, true)
		g.close()
		setups = append(setups, time.Since(start).Seconds())
		t := checkReplies(chk, replies, u.keys)
		reconcile(out, "setup", counters([]*daemon{d}), t, nil)
		setupT.merge(t)
	}
	out.addPhase("setup", setupT, len(warm)*coldSetups)
	out.e2e["setup_s"] = median(setups)
	out.notes["setup_s_each"] = setups

	// Timed phase: the closed loop over the distinct keys.
	g := newGenerator([]string{d.url}, u.bodies, o.conns)
	defer g.close()
	before, rt0 := counters([]*daemon{d}), readRuntime()
	start := time.Now()
	replies := g.run(ctx, "timed", timed, o.conns, true)
	elapsed := time.Since(start)
	after, rt1 := counters([]*daemon{d}), readRuntime()
	out.e2e["heap_live_mb"] = liveHeapMB()

	t := checkReplies(chk, replies, u.keys)
	out.addPhase("timed", t, len(timed))
	if t.Sources[serve.SourceSolve] != t.Succeeded {
		out.problem("timed: %d of %d answers were not fresh solves: %v", t.Succeeded-t.Sources[serve.SourceSolve], t.Succeeded, t.Sources)
	}
	out.e2e["throughput_per_s"] = float64(t.Succeeded) / elapsed.Seconds()
	if err := latencyMetrics(out, latencies(replies, t)); err != nil {
		out.problem("%v", err)
	}
	dd := delta(before, after)
	reconcile(out, "timed", dd, t, nil)
	if err := directCheck(ctx, cfg, u, replies, o.seed); err != nil {
		out.problem("direct solve: %v", err)
	}

	if o.traced {
		serveLayers(out, replies, t, dd, log)
		out.layer["serve.solves_per_unique_key"] = ratio(dd["serve.solve.executed"], float64(len(timed)))
		runtimeLayers(out, rt0, rt1, int64(len(timed)))
		genLayers(out, replies)
	}
	out.notes["keys"] = len(timed)
	out.notes["timed_s"] = elapsed.Seconds()
	return out, nil
}

// directCheck re-solves a seeded sample of the timed keys with a fresh
// engine session and compares every served value with the direct solve.
func directCheck(ctx context.Context, cfg engine.Config, u *universe, replies []reply, seed int64) error {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x636f6c64))
	picks := rng.Perm(len(replies))[:min(coldChecks, len(replies))]
	errs := make([]error, len(picks))
	var wg sync.WaitGroup
	for j, i := range picks {
		wg.Add(1)
		go func(j int, r *reply) {
			defer wg.Done()
			eq, err := directSolve(ctx, cfg, u.workloads[r.Call.Key])
			if err != nil {
				errs[j] = err
				return
			}
			if err := matchesSolve(r.Body, eq); err != nil {
				errs[j] = fmt.Errorf("%s: %w", r.ID, err)
			}
		}(j, &replies[i])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// directSolve solves one workload on a fresh session; a non-converged
// equilibrium is an answer, as it is for the daemon.
func directSolve(ctx context.Context, cfg engine.Config, w engine.Workload) (*engine.Equilibrium, error) {
	s, err := engine.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	eq, err := s.SolveContext(ctx, w, nil)
	if err != nil && !(errors.Is(err, engine.ErrNotConverged) && eq != nil) {
		return nil, err
	}
	return eq, nil
}
