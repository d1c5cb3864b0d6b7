package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	mfgcp "repro"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/surrogate"
)

// readConfig decodes the -config file at path into dst (an engine.Request,
// or verify's request plus Tolerances) as strictly as the daemon decodes a
// request body: an unknown or misspelled section fails, and so does anything
// after the document.
func readConfig(path string, dst any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("-config %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("-config %s: data after the JSON document", path)
	}
	return nil
}

// readSolverDefaults resolves the -config file of serve and precompute (none
// when path is empty) onto the library defaults. Both take their workloads
// elsewhere, per request or from the sweep axes, so a Workload section fails.
func readSolverDefaults(path string) (mfgcp.SolverConfig, error) {
	cfg := mfgcp.DefaultSolverConfig(mfgcp.DefaultParams())
	if path == "" {
		return cfg, nil
	}
	var req engine.Request
	if err := readConfig(path, &req); err != nil {
		return mfgcp.SolverConfig{}, err
	}
	if len(req.Workload) > 0 {
		return mfgcp.SolverConfig{}, fmt.Errorf("-config %s: a Workload section is per-request; this command takes Params and Solver only", path)
	}
	cfg, _, err := req.Resolve(cfg)
	if err != nil {
		return mfgcp.SolverConfig{}, fmt.Errorf("-config %s: %w", path, err)
	}
	return cfg, nil
}

// solveCmd implements `mfgcp solve`: one custom equilibrium solve with
// parameter overrides from flags, a text summary, optional CSV dumps of the
// strategy surface / density marginal / price path, and an optional
// equilibrium archive for reuse via the warm-start machinery.
//
// Configuration precedence: the experiment defaults, then -config FILE (a
// JSON document shaped like the daemon's /v1/solve request), then every flag
// set explicitly on the command line.
func solveCmd(args []string) (retErr error) {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	configPath := fs.String("config", "", "JSON solve configuration merged over the defaults (Params/Solver/Workload)")
	requests := fs.Float64("requests", 10, "request load |I_k| per epoch")
	pop := fs.Float64("pop", 0.3, "content popularity Π_k in [0,1]")
	timeliness := fs.Float64("timeliness", 2, "content timeliness L_k")
	qk := fs.Float64("qk", 0, "content size Qk in MB (0 keeps the default)")
	eta1 := fs.Float64("eta1", 0, "supply→price conversion η1 (0 keeps the default)")
	eta2 := fs.Float64("eta2", 0, "delay→cost conversion η2 (0 keeps the default)")
	initMean := fs.Float64("init-mean", 0, "initial λ(0) mean fraction in (0,1] (0 keeps the default)")
	nh := fs.Int("nh", 0, "h-grid nodes (0 keeps the default)")
	nq := fs.Int("nq", 0, "q-grid nodes (0 keeps the default)")
	steps := fs.Int("steps", 0, "time steps (0 keeps the default)")
	noShare := fs.Bool("no-share", false, "solve the MFG baseline without peer sharing")
	scheme := fs.String("scheme", "", "PDE time integrator: implicit (default) or explicit")
	surrogatePath := fs.String("surrogate", "", "precomputed surrogate table (see mfgcp precompute); in-region workloads answer by interpolation")
	surrogateMaxBound := fs.Float64("surrogate-max-bound", 0, "reject surrogate answers whose declared error bound exceeds this (0 = any in-region bound)")
	csvDir := fs.String("csv", "", "write strategy/density/price CSVs into this directory")
	saveTo := fs.String("save", "", "write the solved equilibrium archive to this file")
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

	set := setFlags(fs)
	var req engine.Request
	if *configPath != "" {
		if err := readConfig(*configPath, &req); err != nil {
			return err
		}
	}
	cfg, w, err := req.Resolve(mfgcp.DefaultSolverConfig(mfgcp.DefaultParams()))
	if err != nil {
		return fmt.Errorf("-config %s: %w", *configPath, err)
	}
	if *qk > 0 {
		cfg.Params.Qk = *qk
		cfg.Params.SigmaQ = 0.1 * *qk
	}
	if *eta1 > 0 {
		cfg.Params.Eta1 = *eta1
	}
	if *eta2 > 0 {
		cfg.Params.Eta2 = *eta2
	}
	if *initMean > 0 {
		cfg.Params.InitMeanFrac = *initMean
	}
	nhv, nqv, stepsv := cfg.NH, cfg.NQ, cfg.Steps
	if *nh > 0 {
		nhv = *nh
	}
	if *nq > 0 {
		nqv = *nq
	}
	if *steps > 0 {
		stepsv = *steps
	}
	opts := []mfgcp.SolveOption{mfgcp.WithGrid(nhv, nqv, stepsv), mfgcp.WithRecorder(tel.Rec)}
	if *configPath == "" || set["no-share"] {
		opts = append(opts, mfgcp.WithSharing(!*noShare))
	}
	if *scheme != "" {
		opts = append(opts, mfgcp.WithScheme(*scheme))
	}
	if set["surrogate"] || set["surrogate-max-bound"] {
		sc := cfg.Surrogate
		if set["surrogate"] {
			sc.Path = *surrogatePath
		}
		if set["surrogate-max-bound"] {
			sc.MaxErrorBound = *surrogateMaxBound
		}
		opts = append(opts, mfgcp.WithSurrogate(sc.Path, sc.MaxErrorBound))
	}
	cfg, err = mfgcp.ApplySolveOptions(cfg, opts...)
	if err != nil {
		return err
	}
	params := cfg.Params

	// The workload flags' defaults stand in for an absent Workload section;
	// an explicit flag wins over a present one.
	noWorkload := len(req.Workload) == 0
	if noWorkload || set["requests"] {
		w.Requests = *requests
	}
	if noWorkload || set["pop"] {
		w.Pop = *pop
	}
	if noWorkload || set["timeliness"] {
		w.Timeliness = *timeliness
	}

	if cfg.Surrogate.Path != "" {
		tab, err := surrogate.Load(cfg.Surrogate.Path)
		if err != nil {
			return err
		}
		if sum, ok := tab.Lookup(cfg, w); ok {
			if *csvDir != "" || *saveTo != "" {
				fmt.Fprintln(os.Stderr, "mfgcp: warning: -csv/-save need the full equilibrium; solving exactly despite the surrogate hit")
			} else {
				printSurrogateSummary(sum)
				return tel.summary("solve")
			}
		} else {
			fmt.Fprintln(os.Stderr, "mfgcp: workload outside the surrogate trust region; solving exactly")
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	eq, err := mfgcp.SolveEquilibriumContext(ctx, cfg, w)
	if err != nil {
		if eq == nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mfgcp: warning: %v (reporting the partial equilibrium)\n", err)
	}
	fmt.Printf("equilibrium: %d iterations, converged=%v, %.2fs\n",
		eq.Iterations, eq.Converged, time.Since(start).Seconds())
	for _, t := range []float64{0, 0.25, 0.5, 0.75, 1} {
		s := eq.SnapshotAt(t * params.Horizon)
		fmt.Printf("  t=%.2f  price=%.3f  E[x*]=%.3f  q̄=%.1fMB  Φ̄²=%.2f\n",
			s.T, s.Price, s.MeanControl, s.QBar, s.ShareBenefit)
	}

	if *csvDir != "" {
		if err := writeSolveCSVs(eq, params, *csvDir); err != nil {
			return err
		}
		fmt.Printf("[CSV artefacts written to %s]\n", *csvDir)
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := eq.WriteTo(f)
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("[equilibrium archive (%d bytes) written to %s]\n", n, *saveTo)
	}
	return tel.summary("solve")
}

// printSurrogateSummary renders an interpolated tier-0 answer in the same
// shape as the exact solve's summary, with the declared error bound up front.
func printSurrogateSummary(sum *surrogate.Summary) {
	fmt.Printf("surrogate: interpolated answer, error bound %.3g (converged=%v, ≤%d iterations at the cell corners)\n",
		sum.ErrorBound, sum.Converged, sum.Iterations)
	n := len(sum.Time)
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		i := int(frac*float64(n-1) + 0.5)
		fmt.Printf("  t=%.2f  price=%.3f  E[x*]=%.3f  q̄=%.1fMB\n",
			sum.Time[i], sum.Price[i], sum.MeanControl[i], sum.MeanRemaining[i])
	}
}

func writeSolveCSVs(eq *mfgcp.Equilibrium, params mfgcp.Params, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	steps := eq.Time.Steps

	// Strategy surface x*(t, q) at the mean fading level.
	strat := &metrics.SeriesSet{Title: "strategy", XLabel: "q", YLabel: "x*"}
	qs := eq.Grid.Q.Nodes()
	for _, frac := range []float64{0, 0.25, 0.5, 0.75} {
		t := frac * params.Horizon
		vals := make([]float64, len(qs))
		for j, q := range qs {
			x, err := eq.HJB.ControlAt(t, params.ChMean, q)
			if err != nil {
				return err
			}
			vals[j] = x
		}
		s, err := metrics.NewSeries(fmt.Sprintf("t=%.2f", t), qs, vals)
		if err != nil {
			return err
		}
		strat.Add(s)
	}

	// Density marginal λ(t, q).
	dens := &metrics.SeriesSet{Title: "density", XLabel: "q", YLabel: "lambda"}
	for _, frac := range []float64{0, 0.5, 1} {
		n := int(frac * float64(steps))
		marg, err := eq.MarginalQ(n)
		if err != nil {
			return err
		}
		s, err := metrics.NewSeries(fmt.Sprintf("t=%.2f", eq.Time.At(n)), qs, marg)
		if err != nil {
			return err
		}
		dens.Add(s)
	}

	// Price and mean-control paths.
	econ := &metrics.SeriesSet{Title: "market", XLabel: "t", YLabel: "value"}
	times := make([]float64, steps+1)
	price := make([]float64, steps+1)
	meanX := make([]float64, steps+1)
	for n := 0; n <= steps; n++ {
		times[n] = eq.Time.At(n)
		price[n] = eq.Snapshots[n].Price
		meanX[n] = eq.Snapshots[n].MeanControl
	}
	ps, err := metrics.NewSeries("price", times, price)
	if err != nil {
		return err
	}
	xs, err := metrics.NewSeries("mean control", times, meanX)
	if err != nil {
		return err
	}
	econ.Add(ps)
	econ.Add(xs)

	// Algorithm 2 convergence: the sup-norm strategy residual after every
	// best-response iteration.
	conv := &metrics.SeriesSet{Title: "convergence", XLabel: "iteration", YLabel: "residual"}
	iters := make([]float64, len(eq.Residuals))
	for i := range iters {
		iters[i] = float64(i + 1)
	}
	rs, err := metrics.NewSeries("sup-norm residual", iters, eq.Residuals)
	if err != nil {
		return err
	}
	conv.Add(rs)

	for name, set := range map[string]*metrics.SeriesSet{
		"solve_strategy.csv":        strat,
		"solve_density.csv":         dens,
		"solve_market.csv":          econ,
		"convergence_residuals.csv": conv,
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := set.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
