package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/surrogate"
)

// parseAxisSpec parses one lattice-axis flag value. The accepted forms are
// "min:max:n" (n uniform nodes over [min, max]) and a bare "v" (freeze the
// axis at v — one node, no interpolation along it).
func parseAxisSpec(name, value string) (surrogate.AxisSpec, error) {
	parts := strings.Split(value, ":")
	switch len(parts) {
	case 1:
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return surrogate.AxisSpec{}, fmt.Errorf("-%s %q: %w", name, value, err)
		}
		return surrogate.AxisSpec{Min: v, Max: v, N: 1}, nil
	case 3:
		min, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return surrogate.AxisSpec{}, fmt.Errorf("-%s %q: min: %w", name, value, err)
		}
		max, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return surrogate.AxisSpec{}, fmt.Errorf("-%s %q: max: %w", name, value, err)
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			return surrogate.AxisSpec{}, fmt.Errorf("-%s %q: n: %w", name, value, err)
		}
		return surrogate.AxisSpec{Min: min, Max: max, N: n}, nil
	default:
		return surrogate.AxisSpec{}, fmt.Errorf("-%s %q: want \"min:max:n\" or a single frozen value", name, value)
	}
}

// precomputeCmd implements `mfgcp precompute`: the offline sweep that turns a
// lattice over the workload space into the serving daemon's tier-0 surrogate
// table. Every lattice node is solved to equilibrium with a parallel
// warm-session pool, every cell midpoint is solved as a held-out probe, and
// the measured interpolation error (times -safety) becomes the cell's
// declared error bound. The result is written atomically to -out, ready for
// `mfgcp serve -surrogate` / `mfgcp solve -surrogate`.
//
// Configuration precedence mirrors solve/serve: the defaults, then -config
// FILE (Params/Solver sections of a /v1/solve-shaped document), then every
// flag set explicitly on the command line.
func precomputeCmd(args []string) (retErr error) {
	fs := flag.NewFlagSet("precompute", flag.ContinueOnError)
	out := fs.String("out", "surrogate.mfgt", "output table file (written atomically)")
	configPath := fs.String("config", "", "JSON defaults for Params/Solver (same shape as a /v1/solve body)")
	requests := fs.String("requests", "6:14:5", "request-load axis: \"min:max:n\" or a frozen value")
	pop := fs.String("pop", "0.1:0.5:5", "popularity axis: \"min:max:n\" or a frozen value")
	timeliness := fs.String("timeliness", "2", "timeliness axis: \"min:max:n\" or a frozen value")
	workers := fs.Int("workers", 0, "parallel lattice solvers (0 = one per CPU)")
	safety := fs.Float64("safety", 2, "error-bound safety factor over the measured midpoint error (≥ 1)")
	nh := fs.Int("nh", 0, "h-grid nodes (0 keeps the default)")
	nq := fs.Int("nq", 0, "q-grid nodes (0 keeps the default)")
	steps := fs.Int("steps", 0, "time steps (0 keeps the default)")
	scheme := fs.String("scheme", "", "PDE time integrator: implicit (default) or explicit")
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
	// Explicit flags win over the -config file, mirroring solve/serve.
	set := setFlags(fs)
	if set["nh"] && *nh > 0 {
		solver.NH = *nh
	}
	if set["nq"] && *nq > 0 {
		solver.NQ = *nq
	}
	if set["steps"] && *steps > 0 {
		solver.Steps = *steps
	}
	if set["scheme"] {
		solver.Scheme = *scheme
	}
	// A table must not carry a surrogate reference of its own: the solves
	// behind it are the ground truth the bounds are measured against.
	solver.Surrogate = engine.SurrogateConfig{}

	reqSpec, err := parseAxisSpec("requests", *requests)
	if err != nil {
		return err
	}
	popSpec, err := parseAxisSpec("pop", *pop)
	if err != nil {
		return err
	}
	timSpec, err := parseAxisSpec("timeliness", *timeliness)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	nodes := reqSpec.N * popSpec.N * timSpec.N
	fmt.Fprintf(os.Stderr, "mfgcp precompute: sweeping %d lattice nodes (%d×%d×%d) with %d workers\n",
		nodes, reqSpec.N, popSpec.N, timSpec.N, nWorkers)

	start := time.Now()
	tab, err := surrogate.Build(ctx, surrogate.BuildConfig{
		Config:       solver,
		Requests:     reqSpec,
		Pop:          popSpec,
		Timeliness:   timSpec,
		Workers:      *workers,
		SafetyFactor: *safety,
		Obs:          tel.Rec,
	})
	if err != nil {
		return err
	}
	if err := tab.Save(*out); err != nil {
		return err
	}
	inRegion := 0
	for _, b := range tab.Bounds {
		if !math.IsInf(b, 1) {
			inRegion++
		}
	}
	fmt.Printf("surrogate table: %d nodes, %d/%d cells in the trust region, %.1fs\n",
		nodes, inRegion, len(tab.Bounds), time.Since(start).Seconds())
	fmt.Printf("[surrogate table written to %s]\n", *out)
	return tel.summary("precompute")
}
