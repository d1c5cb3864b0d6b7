package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// solverConfig sizes the equilibrium solver for the run mode.
func solverConfig(p mec.Params, opt Options) engine.Config {
	cfg := engine.DefaultConfig(p)
	cfg.Obs = opt.Obs
	cfg.Scheme = opt.Scheme
	if opt.Quick {
		cfg.NH = 7
		cfg.NQ = 31
		cfg.Steps = 48
		cfg.MaxIters = 30
	}
	return cfg
}

// baseWorkload is the single-content demand used by the equilibrium-level
// figures (4, 5, 6, 7, 8, 9, 10, 11): ten requesters, a popular content
// (Π = 0.3) with mid-range urgency.
func baseWorkload() engine.Workload {
	return engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
}

// solveEquilibrium runs Algorithm 2 and tolerates hitting ψ_th (the partial
// equilibrium is still the best response after ψ_th learning rounds, which is
// what Algorithm 2 returns in that case).
func solveEquilibrium(cfg engine.Config, w engine.Workload) (*engine.Equilibrium, error) {
	eq, err := engine.Solve(cfg, w)
	if err != nil {
		if eq != nil && len(eq.Residuals) > 0 {
			return eq, nil
		}
		return nil, err
	}
	return eq, nil
}

// ensembleSize returns the number of Brownian paths averaged by the
// representative-agent rollouts of the figure runners.
func ensembleSize(opt Options) int {
	if opt.Quick {
		return 16
	}
	return 64
}

// allPolicies returns fresh instances of the five compared schemes in the
// paper's order.
func allPolicies() []policy.Policy {
	return []policy.Policy{
		policy.NewMFGCP(),
		policy.NewMFG(),
		policy.NewUDCS(),
		policy.NewMPC(),
		policy.NewRR(),
	}
}

// marketConfig sizes the agent-based market simulation for the run mode.
// Comparison figures use a reduced catalogue so the per-content equilibrium
// solves stay fast; relative orderings are unaffected (verified by the
// shape tests).
func marketConfig(p mec.Params, pol policy.Policy, opt Options) sim.Config {
	cfg := sim.DefaultConfig(p, pol)
	cfg.Seed = opt.Seed
	cfg.Obs = opt.Obs
	cfg.Solver.Obs = opt.Obs
	cfg.Solver.Scheme = opt.Scheme
	cfg.EqCacheSize = opt.EqCacheSize
	cfg.Context = opt.Context
	if opt.Quick {
		cfg.Epochs = 1
		cfg.StepsPerEpoch = 20
		cfg.Solver.NH = 5
		cfg.Solver.NQ = 25
		cfg.Solver.Steps = 40
		cfg.Solver.MaxIters = 25
	} else {
		cfg.Epochs = 2
		cfg.StepsPerEpoch = 30
	}
	return cfg
}

// comparisonParams shrinks the population and catalogue for the multi-policy
// market figures (12, 13, 14) so each sweep point stays tractable.
func comparisonParams(opt Options) mec.Params {
	p := mec.Default()
	if opt.Quick {
		p.M = 20
		p.K = 4
	} else {
		p.M = 60
		p.K = 6
	}
	return p
}

// defaultTrace generates the synthetic trending trace for the given
// parameters and seed.
func defaultTrace(p mec.Params, seed int64) (*trace.Dataset, error) {
	gen := trace.DefaultGenConfig()
	gen.K = p.K
	gen.Seed = seed
	return trace.Generate(gen)
}

// ledgerTable renders population-mean ledgers of several runs side by side.
func ledgerTable(title string, results []*sim.Result) (*metrics.Table, error) {
	t := metrics.NewTable(title, "scheme", "utility", "trading", "sharing", "placement", "staleness", "share cost")
	for _, r := range results {
		l := r.MeanLedger()
		if err := t.AddRow(
			r.PolicyName,
			fmt.Sprintf("%.2f", r.MeanUtility()),
			fmt.Sprintf("%.2f", l.Trading),
			fmt.Sprintf("%.2f", l.Sharing),
			fmt.Sprintf("%.2f", l.Placement),
			fmt.Sprintf("%.2f", l.Staleness),
			fmt.Sprintf("%.2f", l.ShareCost),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}
