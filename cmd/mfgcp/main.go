// Command mfgcp regenerates the tables and figures of the MFG-CP paper
// (ICDE 2024) from this repository's reproduction.
//
// Usage:
//
//	mfgcp list                 list available experiments
//	mfgcp all [flags]          run every experiment
//	mfgcp <id> [flags]         run one experiment (fig3..fig14, table2)
//
// Flags:
//
//	-quick              shrink grids/populations for a fast smoke run
//	-seed N             RNG seed (default 1)
//	-csv DIR            also write every table/series as CSV files into DIR
//	-scheme NAME        PDE time integrator: implicit (default) or explicit
//	-eq-cache N         equilibrium cache capacity for market runs (0 = off)
//	-deadline D         abort after duration D (e.g. 10m); SIGINT/SIGTERM also
//	                    cancel cleanly
//	-log-level LEVEL    structured slog tracing (debug shows solver spans and
//	                    per-iteration residuals)
//	-metrics-addr ADDR  serve /metrics, /debug/vars and /debug/pprof
//	-trace-out FILE     write a JSON telemetry snapshot to FILE
//
// `mfgcp market` additionally supports the resilience flags -checkpoint DIR
// (atomic epoch-boundary snapshots), -resume (bit-for-bit restart from the
// snapshot), -fault-plan SPEC (seeded fault injection) and -recover
// (divergence-recovery ladder); see `mfgcp market -h`.
//
// `mfgcp serve` runs the long-running equilibrium-serving daemon (HTTP/JSON:
// POST /v1/solve, POST /v1/policy/epoch, /healthz, /readyz); see
// `mfgcp serve -h` and the README's Serving section.
//
// `mfgcp precompute` sweeps a lattice over the quantised workload space
// offline into a compact surrogate table of equilibrium summaries with
// measured per-cell error bounds; `mfgcp serve -surrogate TABLE` and
// `mfgcp solve -surrogate TABLE` then answer in-region requests from it by
// multilinear interpolation, falling back to the exact solver outside the
// trust region.
//
// `mfgcp loadgen` replays trace-derived workloads against a running daemon at
// a constant open-loop rate and reports p50/p99/p999 latency plus
// error/shed/timeout rates as JSON, exiting non-zero when a declared SLO is
// violated; see `mfgcp loadgen -h` and the README's Load testing section.
//
// `mfgcp serve` daemons also form a sharded fleet: `-peers` declares a static
// consistent-hash ring over the members, and local cache misses are filled
// from the key's ring owner before solving cold (source "peer"); `mfgcp
// manifests` renders the matching Kubernetes StatefulSet, Services and pinned
// autoscaler into deploy/; see the README's Running a fleet section.
//
// `mfgcp verify` runs the numerical verification suite (invariant oracles,
// cross-scheme differential tests, convergence-order estimation, property
// sweep) and exits non-zero on any violation; see `mfgcp verify -h` and the
// README's Verifying section.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mfgcp:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing experiment id")
	}
	cmd := args[0]
	switch cmd {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	case "solve":
		return solveCmd(args[1:])
	case "precompute":
		return precomputeCmd(args[1:])
	case "market":
		return marketCmd(args[1:])
	case "serve":
		return serveCmd(args[1:])
	case "loadgen":
		return loadgenCmd(args[1:])
	case "manifests":
		return manifestsCmd(args[1:])
	case "verify":
		return verifyCmd(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	}

	fs := flag.NewFlagSet("mfgcp", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink grids/populations for a fast run")
	seed := fs.Int64("seed", 1, "RNG seed")
	csvDir := fs.String("csv", "", "write CSV artefacts into this directory")
	scheme := fs.String("scheme", "", "PDE time integrator: implicit (default) or explicit")
	eqCache := fs.Int("eq-cache", 0, "equilibrium cache capacity for market runs (0 = off)")
	deadline := fs.Duration("deadline", 0, "abort the run after this duration (0 = none)")
	of := addObsFlags(fs)
	if err := fs.Parse(args[1:]); err != nil {
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	opt := experiments.Options{
		Seed:        *seed,
		Quick:       *quick,
		Obs:         tel.Rec,
		Scheme:      *scheme,
		EqCacheSize: *eqCache,
		Context:     ctx,
	}

	if cmd != "all" && !knownExperiment(cmd) {
		tel.errorLogger().Error("unknown experiment",
			"id", cmd,
			"known", strings.Join(experiments.IDs(), ","))
		return fmt.Errorf("unknown experiment %q (run `mfgcp list`)", cmd)
	}

	if cmd == "all" {
		for _, id := range experiments.IDs() {
			if err := runOne(id, opt, *csvDir, tel); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(cmd, opt, *csvDir, tel)
}

// setFlags returns the names of the flags set explicitly on the command
// line, so file-provided configuration loses only to deliberate overrides.
func setFlags(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

func knownExperiment(id string) bool {
	for _, known := range experiments.IDs() {
		if id == known {
			return true
		}
	}
	return false
}

func runOne(id string, opt experiments.Options, csvDir string, tel *telemetry) error {
	start := time.Now()
	rep, err := experiments.Run(id, opt)
	if err != nil {
		return err
	}
	if err := rep.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\n[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	if csvDir != "" {
		if err := rep.WriteCSV(csvDir); err != nil {
			return err
		}
		fmt.Printf("[CSV artefacts written to %s]\n", csvDir)
	}
	return tel.summary(id)
}

func usage() {
	fmt.Fprint(os.Stderr, `mfgcp — reproduce the MFG-CP paper's evaluation

usage:
  mfgcp list                 list available experiments
  mfgcp all [flags]          run every experiment
  mfgcp <id> [flags]         run one experiment (e.g. fig5, table2)
  mfgcp solve [flags]        solve one custom equilibrium (see solve -h)
  mfgcp precompute [flags]   sweep a workload lattice into a surrogate table (see precompute -h)
  mfgcp market [flags]       run one agent-based market (see market -h)
  mfgcp serve [flags]        run the equilibrium-serving daemon (see serve -h)
  mfgcp loadgen [flags]      load-test a running daemon against an SLO (see loadgen -h)
  mfgcp manifests [flags]    render the Kubernetes fleet manifests (see manifests -h)
  mfgcp verify [flags]       run the numerical verification suite (see verify -h)

flags:
  -quick              fast smoke run (smaller grids and populations)
  -seed N             RNG seed (default 1)
  -csv DIR            also write CSV artefacts into DIR
  -scheme NAME        PDE time integrator: implicit (default) or explicit
  -eq-cache N         equilibrium cache capacity for market runs (0 = off)
  -deadline D         abort after duration D; SIGINT/SIGTERM cancel cleanly
  -log-level LEVEL    structured slog tracing: debug, info, warn, error
  -metrics-addr ADDR  serve /metrics, /debug/vars and /debug/pprof on ADDR
  -trace-out FILE     write a JSON telemetry snapshot to FILE

market resilience flags (see mfgcp market -h):
  -checkpoint DIR     atomic epoch-boundary snapshots into DIR
  -resume             bit-for-bit restart from the snapshot in -checkpoint
  -fault-plan SPEC    seeded fault injection (churn=,drop=,solver=,seed=,budget=)
  -recover            retry failing solves under the escalation ladder

solve/market/precompute also accept -config FILE (sparse JSON configuration
merged over the defaults; explicitly-set flags win). serve answers POST
/v1/solve and POST /v1/policy/epoch with bounded workers, request coalescing,
load shedding and graceful drain (see mfgcp serve -h); with -surrogate TABLE
it answers in-region requests from the precomputed tier-0 table first.
`)
}
