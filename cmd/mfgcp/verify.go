package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	mfgcp "repro"
	"repro/internal/engine"
	"repro/internal/verify"
)

// verifyFile is the -config document of `mfgcp verify`: the solve request
// plus an optional Tolerances section merged over verify.DefaultTolerances.
type verifyFile struct {
	engine.Request
	Tolerances json.RawMessage `json:",omitempty"`
}

// verifyCmd implements `mfgcp verify`: run the numerical verification suite
// (invariant oracles, differential harnesses, convergence-order estimation,
// property sweep) and exit non-zero when any check fails.
func verifyCmd(args []string) (retErr error) {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run the quick tier (the default)")
	full := fs.Bool("full", false, "run the full tier (order estimation for every scheme, finite-M differential, wide sweep)")
	seed := fs.Int64("seed", 1, "seed of the property-based generators")
	cases := fs.Int("cases", 0, "property-sweep size (0 = tier default)")
	configPath := fs.String("config", "", "JSON verification configuration merged over the defaults (Params/Solver/Workload/Tolerances)")
	jsonOut := fs.Bool("json", false, "write the JSON report to stdout instead of the text summary")
	outPath := fs.String("out", "", "also write the JSON report to this file")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick && *full {
		return fmt.Errorf("verify: -quick and -full are mutually exclusive")
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

	opts := verify.Options{Tier: verify.Quick, Seed: *seed, Cases: *cases, Obs: tel.Rec}
	if *full {
		opts.Tier = verify.Full
	}
	if *configPath != "" {
		var file verifyFile
		if err := readConfig(*configPath, &file); err != nil {
			return err
		}
		if opts.Solver, opts.Workload, err = file.Resolve(verify.DefaultSolverConfig(mfgcp.DefaultParams())); err != nil {
			return fmt.Errorf("-config %s: %w", *configPath, err)
		}
		if len(file.Tolerances) > 0 {
			tol := verify.DefaultTolerances()
			tdec := json.NewDecoder(bytes.NewReader(file.Tolerances))
			tdec.DisallowUnknownFields()
			if err := tdec.Decode(&tol); err != nil {
				return fmt.Errorf("-config %s: Tolerances: %w", *configPath, err)
			}
			opts.Tol = tol
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report, err := verify.Run(ctx, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		data, err := report.MarshalIndent()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(report.Summary())
	}
	if *outPath != "" {
		data, err := report.MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := tel.summary("verify"); err != nil {
		return err
	}
	if !report.Passed {
		return fmt.Errorf("verification failed: %d violation(s) across %d checks (tier %s)",
			len(report.Violations()), len(report.Checks), report.Tier)
	}
	return nil
}
