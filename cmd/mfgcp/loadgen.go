package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/mec"
	"repro/internal/trace"
)

// loadgenCmd implements `mfgcp loadgen`: an open-loop constant-RPS load test
// against a running `mfgcp serve` daemon. Request bodies are derived from the
// synthetic viewing trace (internal/trace) — one workload per content per
// epoch — so the run exercises the same key diversity the market simulation
// does: cold solves on first sight, cache hits and request coalescing on
// repeats. The JSON report (p50/p99/p999 latency, error/shed/timeout rates)
// goes to stdout; when any declared SLO bound is violated the command exits
// non-zero.
func loadgenCmd(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the serve daemon, or a comma-separated fleet member list to spray round-robin")
	rps := fs.Float64("rps", 10, "offered request rate")
	duration := fs.Duration("duration", 5*time.Second, "generation window")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request client deadline")
	inflight := fs.Int("max-inflight", 256, "concurrent-request cap (overruns are dropped, not queued)")
	epochs := fs.Int("epochs", 3, "trace epochs to derive workloads from")
	reqPerEpoch := fs.Float64("requests-per-epoch", 2000, "trace request volume per epoch")
	seed := fs.Int64("seed", 1, "trace RNG seed (workload bodies are deterministic per seed)")
	out := fs.String("out", "", "also write the JSON report to this file")
	sloP50 := fs.Duration("slo-p50", 0, "p50 latency bound (0 = unchecked)")
	sloP99 := fs.Duration("slo-p99", 0, "p99 latency bound (0 = unchecked)")
	sloP999 := fs.Duration("slo-p999", 0, "p999 latency bound (0 = unchecked)")
	sloErr := fs.Float64("slo-error-rate", loadgen.Unchecked, "max error fraction (negative = unchecked)")
	sloShed := fs.Float64("slo-shed-rate", loadgen.Unchecked, "max shed fraction, 429/503s and drops (negative = unchecked)")
	sloTimeout := fs.Float64("slo-timeout-rate", loadgen.Unchecked, "max timeout fraction (negative = unchecked)")
	validate := fs.Bool("validate", false, "decode every 200 body and fail the run on corrupt responses")
	scrape := fs.Bool("scrape", false, "scrape the daemon's /metrics before/after and report cache-warmth and breaker counter deltas")
	if err := fs.Parse(args); err != nil {
		return err
	}

	bodies, err := traceBodies(*epochs, *reqPerEpoch, *seed)
	if err != nil {
		return err
	}

	var targets []string
	for _, tgt := range strings.Split(*target, ",") {
		if tgt = strings.TrimSpace(tgt); tgt != "" {
			targets = append(targets, tgt)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "mfgcp loadgen: %s for %s at %g rps (%d distinct workloads)\n",
		strings.Join(targets, ","), *duration, *rps, len(bodies))
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Targets:       targets,
		RPS:           *rps,
		Duration:      *duration,
		Timeout:       *timeout,
		MaxInFlight:   *inflight,
		Bodies:        bodies,
		Validate:      *validate,
		ScrapeMetrics: *scrape,
		SLO: loadgen.SLO{
			P50Ms:          float64(*sloP50) / 1e6,
			P99Ms:          float64(*sloP99) / 1e6,
			P999Ms:         float64(*sloP999) / 1e6,
			MaxErrorRate:   *sloErr,
			MaxShedRate:    *sloShed,
			MaxTimeoutRate: *sloTimeout,
		},
	})
	if err != nil {
		return err
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if _, err := os.Stdout.Write(doc); err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			return err
		}
	}
	if !rep.Pass {
		return fmt.Errorf("SLO violated: %v", rep.Violations)
	}
	return nil
}

// traceBodies derives the /v1/solve request documents from the synthetic
// viewing trace: every content of every epoch becomes one body, replayed
// round-robin by the generator.
func traceBodies(epochs int, reqPerEpoch float64, seed int64) ([][]byte, error) {
	params := mec.Default()
	gen := trace.DefaultGenConfig()
	gen.Seed = seed
	ds, err := trace.Generate(gen)
	if err != nil {
		return nil, err
	}
	wls, err := trace.BuildWorkloads(ds, params, epochs, reqPerEpoch, seed)
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	for i := range wls {
		for k := 0; k < params.K; k++ {
			w, err := wls[i].Workload(k)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(struct{ Workload engine.Workload }{w})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
	}
	return bodies, nil
}
