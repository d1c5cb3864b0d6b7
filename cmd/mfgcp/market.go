package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	mfgcp "repro"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// marketCmd implements `mfgcp market`: one agent-based market run
// (Algorithm 1) with the chosen policy and population, reporting per-epoch
// statistics and the whole-run ledger. The resilience flags (-checkpoint,
// -resume, -deadline, -fault-plan, -recover) make long runs interruptible,
// restartable and fault-tolerant; SIGINT/SIGTERM flush the partial results
// and exit cleanly, leaving a valid snapshot behind when -checkpoint is set.
//
// Configuration precedence: the experiment defaults, then -config FILE (a
// sparse JSON market configuration, see internal/sim's codec), then every
// flag set explicitly on the command line.
func marketCmd(args []string) (retErr error) {
	fs := flag.NewFlagSet("market", flag.ContinueOnError)
	configPath := fs.String("config", "", "JSON market configuration merged over the defaults")
	policyName := fs.String("policy", "mfg-cp", "caching policy: mfg-cp, mfg, rr, mpc, udcs")
	m := fs.Int("m", 60, "number of EDPs")
	k := fs.Int("k", 6, "number of contents")
	epochs := fs.Int("epochs", 2, "optimisation epochs")
	steps := fs.Int("steps", 30, "simulation steps per epoch")
	seed := fs.Int64("seed", 1, "RNG seed")
	requesters := fs.Int("requesters", 0, "requester population J (0 = homogeneous demand)")
	exact := fs.Bool("exact-interference", false, "pairwise SINR instead of the mean-field rate")
	scheme := fs.String("scheme", "", "PDE time integrator: implicit (default) or explicit")
	eqCache := fs.Int("eq-cache", 0, "equilibrium cache capacity across epochs (0 = off)")
	checkpoint := fs.String("checkpoint", "", "directory for atomic epoch-boundary snapshots (empty = off)")
	ckEvery := fs.Int("checkpoint-every", 1, "snapshot after every N-th epoch")
	resume := fs.Bool("resume", false, "resume from the snapshot in -checkpoint (fresh start if none)")
	deadline := fs.Duration("deadline", 0, "abort the run after this duration, flushing partial results (0 = none)")
	faultSpec := fs.String("fault-plan", "", "seeded fault injection, e.g. churn=0.1,drop=0.2,solver=0.1,seed=7,budget=3")
	recovery := fs.Bool("recover", false, "retry diverged/non-converged solves under the escalation ladder")
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
	// A flag wins over the config file only when set explicitly; without a
	// file, every flag (including its default) defines the run.
	flagWins := func(name string) bool { return *configPath == "" || set[name] }

	pol, err := mfgcp.PolicyByName(*policyName)
	if err != nil {
		return err
	}
	params := mfgcp.DefaultParams()
	params.M = *m
	params.K = *k
	cfg := mfgcp.DefaultMarketConfig(params, pol)
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		if cfg, err = sim.DecodeConfig(data, cfg); err != nil {
			return fmt.Errorf("-config %s: %w", *configPath, err)
		}
		if flagWins("policy") {
			cfg.Policy = pol
		}
		if flagWins("m") {
			cfg.Params.M = *m
		}
		if flagWins("k") {
			cfg.Params.K = *k
		}
	}

	var opts []mfgcp.MarketOption
	addOpt := func(name string, o mfgcp.MarketOption) {
		if flagWins(name) {
			opts = append(opts, o)
		}
	}
	addOpt("epochs", mfgcp.WithEpochs(*epochs))
	addOpt("steps", mfgcp.WithStepsPerEpoch(*steps))
	addOpt("seed", mfgcp.WithSeed(*seed))
	addOpt("exact-interference", mfgcp.WithExactInterference(*exact))
	addOpt("eq-cache", mfgcp.WithEqCache(*eqCache))
	if *scheme != "" {
		opts = append(opts, mfgcp.WithScheme(*scheme))
	}
	if *configPath == "" || set["checkpoint"] || set["checkpoint-every"] || set["resume"] {
		opts = append(opts, mfgcp.WithCheckpoint(mfgcp.MarketCheckpointConfig{
			Dir: *checkpoint, Every: *ckEvery, Resume: *resume,
		}))
	}
	if *faultSpec != "" {
		plan, err := parseFaultPlan(*faultSpec)
		if err != nil {
			return err
		}
		opts = append(opts, mfgcp.WithFaultPlan(*plan))
	}
	if *recovery {
		opts = append(opts, mfgcp.WithEscalation(mfgcp.DefaultRecoveryEscalation()))
	}
	if *requesters > 0 {
		opts = append(opts, mfgcp.WithRequesters(mfgcp.RequesterConfig{
			J:                    *requesters,
			Speed:                5,
			RequestsPerRequester: cfg.RequestsPerEDP * float64(cfg.Params.M) / float64(*requesters),
			TimelinessNoise:      0.5,
		}))
	}
	opts = append(opts, mfgcp.WithRecorder(tel.Rec))
	if cfg, err = mfgcp.ApplyMarketOptions(cfg, opts...); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	start := time.Now()
	res, err := mfgcp.RunMarketContext(ctx, cfg)
	interrupted := errors.Is(err, mfgcp.ErrMarketInterrupted)
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		fmt.Printf("interrupted (%v); partial results follow", err)
		if *checkpoint != "" {
			fmt.Printf(" — resume with -checkpoint %s -resume", *checkpoint)
		}
		fmt.Println()
	}
	fmt.Printf("%s: %d EDPs × %d contents × %d/%d epochs in %.1fs (strategy time %v)\n",
		cfg.Policy.Name(), cfg.Params.M, cfg.Params.K, len(res.Stats), cfg.Epochs, time.Since(start).Seconds(),
		res.StrategyTime.Round(time.Millisecond))

	tab := metrics.NewTable("per-epoch statistics (population means)",
		"epoch", "utility", "trading", "sharing", "staleness", "price", "x̄", "E[q]")
	for _, es := range res.Stats {
		if err := tab.AddRow(
			fmt.Sprintf("%d", es.Epoch),
			fmt.Sprintf("%.1f", es.MeanUtility),
			fmt.Sprintf("%.1f", es.MeanTrading),
			fmt.Sprintf("%.1f", es.MeanSharing),
			fmt.Sprintf("%.1f", es.MeanStale),
			fmt.Sprintf("%.3f", es.MeanPrice),
			fmt.Sprintf("%.3f", es.MeanRate),
			fmt.Sprintf("%.1f", es.MeanRemain),
		); err != nil {
			return err
		}
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	if len(res.Ledgers) > 0 {
		l := res.MeanLedger()
		fmt.Printf("\nwhole-run ledger (population mean): utility %.1f = trading %.1f + sharing %.1f − placement %.1f − staleness %.1f − share cost %.1f\n",
			res.MeanUtility(), l.Trading, l.Sharing, l.Placement, l.Staleness, l.ShareCost)
	}
	return tel.summary("market")
}

// parseFaultPlan parses the -fault-plan specification: comma-separated
// key=value pairs with keys churn, drop, solver (probabilities), seed and
// budget (integers). Unset keys default to zero.
func parseFaultPlan(spec string) (*sim.FaultPlan, error) {
	plan := &sim.FaultPlan{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("fault plan: %q is not key=value", field)
		}
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		switch key {
		case "churn", "drop", "solver":
			p, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan: %s: %w", key, err)
			}
			switch key {
			case "churn":
				plan.EDPChurn = p
			case "drop":
				plan.DropShare = p
			case "solver":
				plan.SolverFail = p
			}
		case "seed":
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan: seed: %w", err)
			}
			plan.Seed = n
		case "budget":
			n, err := strconv.Atoi(value)
			if err != nil {
				return nil, fmt.Errorf("fault plan: budget: %w", err)
			}
			plan.ErrorBudget = n
		default:
			return nil, fmt.Errorf("fault plan: unknown key %q (want churn, drop, solver, seed or budget)", key)
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}
