package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/surrogate"
)

// Fleet workload sizing. The key universe is the first epoch of the loadgen
// default trace (20 keys); the lower half by demand is the slice the
// surrogate table covers. Each replica's LRU holds fewer keys than the exact
// part of the universe, so the timed phase's misses reach the store (on the
// key's owner) and peer fills (on the others): about 78% cache, 9%
// surrogate, 11% peer and 3% store answers. The offered rate keeps the
// two-core host well below saturation and gives 1100 samples in a 20 s
// phase.
const (
	fleetReplicas = 3
	fleetEpochs   = 1
	fleetRate     = 55.0 // requests per second in the timed phase
	fleetEqCache  = 7    // -eq-cache of each replica
	// fleetTraceSeed fixes the key universe (the loadgen default trace's
	// first epoch); the run's seed draws the timed sequence.
	fleetTraceSeed = 1
)

// runFleet runs three replicas on a static ring sharing one surrogate table:
// set-up turns over every key of the universe at once, then an open loop at
// a fixed rate draws keys in proportion to their demand.
func runFleet(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	cfg, err := solverConfig()
	if err != nil {
		return nil, err
	}
	u, err := traceUniverse(fleetTraceSeed, fleetEpochs, 0, cfg)
	if err != nil {
		return nil, err
	}
	chk := newChecker(cfg.Params)

	// Set-up: table, replicas, turnover burst.
	start := time.Now()
	tab, err := buildTable(ctx, cfg, u, o.conns)
	if err != nil {
		return nil, fmt.Errorf("surrogate table: %w", err)
	}
	tablePath := filepath.Join(o.tmp, "fleet.mfgt")
	if err := tab.Save(tablePath); err != nil {
		return nil, err
	}
	var log *accessLog
	if o.traced {
		log = &accessLog{}
	}
	ds, err := startFleet(o, tablePath, log)
	defer func() {
		for _, d := range ds {
			d.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	urls := make([]string, len(ds))
	for i, d := range ds {
		urls[i] = d.url
	}
	turn := make([]call, 0, len(u.keys)*len(ds))
	for k := range u.keys {
		for r := range ds {
			turn = append(turn, call{Key: k, Target: r})
		}
	}
	g := newGenerator(urls, u.bodies, len(turn))
	c0 := counters(ds)
	turnReplies := g.run(ctx, "setup", turn, len(turn), false)
	g.close()
	setupDelta := delta(c0, counters(ds))
	out.e2e["setup_s"] = time.Since(start).Seconds()

	// Keys whose turnover answers did not all converge are not cached
	// anywhere, so drawing them would time fresh solves: they leave the
	// timed draw (and the count is recorded).
	inRegion := make([]bool, len(u.keys))
	weights := make([]float64, len(u.keys))
	exactKeys, dropped := 0, 0
	for k, w := range u.workloads {
		_, inRegion[k] = tab.Lookup(cfg, w)
		weights[k] = w.Requests
		if !inRegion[k] {
			exactKeys++
		}
	}
	for i := range turnReplies {
		r := &turnReplies[i]
		if !inRegion[r.Call.Key] && !convergedAnswer(r) && weights[r.Call.Key] > 0 {
			weights[r.Call.Key] = 0
			dropped++
		}
	}

	// Timed phase.
	n := int(fleetRate * float64(o.seconds))
	calls := openSchedule(uint64(o.seed), n, fleetRate, weights, len(ds))
	g = newGenerator(urls, u.bodies, o.conns)
	defer g.close()
	c1, rt0 := counters(ds), readRuntime()
	t0 := time.Now()
	replies := g.run(ctx, "timed", calls, o.conns, false)
	elapsed := time.Since(t0)
	timedDelta, rt1 := delta(c1, counters(ds)), readRuntime()
	out.e2e["heap_live_mb"] = liveHeapMB()

	// Exact references for every surrogate-answered key, then the checks.
	if err := surrogateRefs(ctx, chk, cfg, u, inRegion, o.conns); err != nil {
		return nil, err
	}
	setupT := checkReplies(chk, turnReplies, u.keys)
	out.addPhase("setup", setupT, len(turn))
	t := checkReplies(chk, replies, u.keys)
	out.addPhase("timed", t, len(calls))
	out.e2e["throughput_per_s"] = float64(t.Succeeded) / elapsed.Seconds()
	if err := latencyMetrics(out, latencies(replies, t)); err != nil {
		out.problem("%v", err)
	}
	if v := timedDelta["serve.solve.executed"]; v != 0 {
		out.problem("timed: %g fresh solves executed, want none", v)
	}
	for _, src := range []serve.Source{serve.SourceSurrogate, serve.SourceCache, serve.SourceStore, serve.SourcePeer} {
		if t.Sources[src] == 0 {
			out.problem("timed: no %s answers; the workload no longer exercises that rung", src)
		}
	}
	var setupOwner, timedOwner map[serve.Source]int64
	if o.traced {
		if setupOwner, err = ownerAnswers(log, "setup"); err == nil {
			timedOwner, err = ownerAnswers(log, "timed")
		}
		if err != nil {
			out.problem("closure: %v", err)
		}
	}
	reconcile(out, "setup", setupDelta, setupT, setupOwner)
	reconcile(out, "timed", timedDelta, t, timedOwner)

	if o.traced {
		serveLayers(out, replies, t, timedDelta, log)
		out.layer["serve.solves_per_unique_key"] = ratio(setupDelta["serve.solve.executed"], float64(exactKeys))
		out.layer["surrogate.bound_use_max"] = chk.boundUse
		runtimeLayers(out, rt0, rt1, int64(len(calls)))
		genLayers(out, replies)
	}
	shares := map[serve.Source]float64{}
	for src, c := range t.Sources {
		shares[src] = ratio(float64(c), float64(len(calls)))
	}
	out.notes["timed_source_shares"] = shares
	out.notes["surrogate_bound_use_max"] = chk.boundUse
	out.notes["keys"] = len(u.keys)
	out.notes["surrogate_keys"] = len(u.keys) - exactKeys
	out.notes["unconverged_keys_dropped"] = dropped
	out.notes["turnover_solves"] = setupDelta["serve.solve.executed"]
	out.notes["timed_s"] = elapsed.Seconds()
	return out, nil
}

// startFleet starts the replicas on a static ring over their loopback URLs.
func startFleet(o options, tablePath string, log *accessLog) ([]*daemon, error) {
	lns := make([]net.Listener, fleetReplicas)
	urls := make([]string, fleetReplicas)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	var ds []*daemon
	for i, ln := range lns {
		dir, err := os.MkdirTemp(o.tmp, "fleet-store-")
		if err == nil {
			var d *daemon
			if d, err = startDaemon(daemonFlags{eqCache: fleetEqCache, cacheDir: dir, surrogate: tablePath,
				peers: urls, self: urls[i], accessLog: log, ln: ln}); err == nil {
				ds = append(ds, d)
				continue
			}
		}
		for _, l := range lns[i:] {
			l.Close()
		}
		return ds, err
	}
	return ds, nil
}

// buildTable builds the surrogate table over the low-demand slice: the box
// spanned by the lower half of the universe's workloads by demand.
func buildTable(ctx context.Context, cfg engine.Config, u *universe, workers int) (*surrogate.Table, error) {
	ws := append([]engine.Workload(nil), u.workloads...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Requests < ws[j].Requests })
	slice := ws[:len(ws)/2]
	axis := func(get func(engine.Workload) float64) surrogate.AxisSpec {
		lo, hi := get(slice[0]), get(slice[0])
		for _, w := range slice {
			lo, hi = min(lo, get(w)), max(hi, get(w))
		}
		if lo == hi {
			return surrogate.AxisSpec{Min: lo, Max: lo, N: 1}
		}
		return surrogate.AxisSpec{Min: lo, Max: hi, N: 2}
	}
	return surrogate.Build(ctx, surrogate.BuildConfig{
		Config:     cfg,
		Requests:   axis(func(w engine.Workload) float64 { return w.Requests }),
		Pop:        axis(func(w engine.Workload) float64 { return w.Pop }),
		Timeliness: axis(func(w engine.Workload) float64 { return w.Timeliness }),
		Workers:    workers,
	})
}

// surrogateRefs solves every in-region key exactly, workers at a time, as the
// references surrogate answers are checked against.
func surrogateRefs(ctx context.Context, chk *checker, cfg engine.Config, u *universe, inRegion []bool, workers int) error {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
		sem  = make(chan struct{}, workers)
	)
	for k, in := range inRegion {
		if !in {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			eq, err := directSolve(ctx, cfg, u.workloads[k])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			node, _ := surrogate.SampleEquilibrium(eq)
			chk.refs[u.keys[k]] = &node
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// convergedAnswer reports whether a reply is a 200 carrying a converged
// equilibrium.
func convergedAnswer(r *reply) bool {
	if r.Err != nil || r.Status != 200 {
		return false
	}
	var resp struct {
		Converged bool `json:"converged"`
	}
	return json.Unmarshal(r.Body, &resp) == nil && resp.Converged
}
