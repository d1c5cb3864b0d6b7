package mfgcp

import "context"

// Functional options for building validated solver and market configurations
// without mutating config structs field by field. NewSolverConfig and
// NewMarketConfig start from the experiment defaults, apply the options in
// order and validate the result, so an invalid combination fails at
// construction instead of deep inside a solve.
//
//	cfg, err := mfgcp.NewSolverConfig(params,
//	    mfgcp.WithScheme("explicit"),
//	    mfgcp.WithGrid(9, 41, 60),
//	    mfgcp.WithRecorder(rec))
//
// Options shared by both configurations (WithScheme, WithRecorder) satisfy
// both interfaces and can be passed to either constructor.

// SolveOption configures a SolverConfig built by NewSolverConfig.
type SolveOption interface{ applySolve(*SolverConfig) }

// MarketOption configures a MarketConfig built by NewMarketConfig.
type MarketOption interface{ applyMarket(*MarketConfig) }

// Option is an option accepted by both NewSolverConfig and NewMarketConfig.
type Option interface {
	SolveOption
	MarketOption
}

type solveOption func(*SolverConfig)

func (f solveOption) applySolve(c *SolverConfig) { f(c) }

type marketOption func(*MarketConfig)

func (f marketOption) applyMarket(c *MarketConfig) { f(c) }

// dualOption applies to both configuration kinds.
type dualOption struct {
	solve  func(*SolverConfig)
	market func(*MarketConfig)
}

func (d dualOption) applySolve(c *SolverConfig)  { d.solve(c) }
func (d dualOption) applyMarket(c *MarketConfig) { d.market(c) }

// NewSolverConfig builds a validated solver configuration: the experiment
// defaults for p, modified by opts, checked by SolverConfig.Validate.
func NewSolverConfig(p Params, opts ...SolveOption) (SolverConfig, error) {
	return ApplySolveOptions(DefaultSolverConfig(p), opts...)
}

// ApplySolveOptions applies opts to an existing solver configuration (e.g.
// one decoded from a JSON file) and validates the result.
func ApplySolveOptions(cfg SolverConfig, opts ...SolveOption) (SolverConfig, error) {
	for _, o := range opts {
		o.applySolve(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return SolverConfig{}, err
	}
	return cfg, nil
}

// NewMarketConfig builds a validated market configuration: the experiment
// defaults for p and pol, modified by opts, checked by MarketConfig.Validate.
func NewMarketConfig(p Params, pol Policy, opts ...MarketOption) (MarketConfig, error) {
	return ApplyMarketOptions(DefaultMarketConfig(p, pol), opts...)
}

// ApplyMarketOptions applies opts to an existing market configuration (e.g.
// one decoded from a JSON file) and validates the result.
func ApplyMarketOptions(cfg MarketConfig, opts ...MarketOption) (MarketConfig, error) {
	for _, o := range opts {
		o.applyMarket(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return MarketConfig{}, err
	}
	return cfg, nil
}

// WithScheme selects the PDE time integrator by name ("implicit" or
// "explicit"). On a market configuration it applies to the per-epoch
// equilibrium solves.
func WithScheme(name string) Option {
	return dualOption{
		solve:  func(c *SolverConfig) { c.Scheme = name },
		market: func(c *MarketConfig) { c.Solver.Scheme = name },
	}
}

// WithRecorder installs the telemetry sink. On a market configuration the
// recorder also reaches the nested equilibrium solves.
func WithRecorder(rec Recorder) Option {
	return dualOption{
		solve:  func(c *SolverConfig) { c.Obs = rec },
		market: func(c *MarketConfig) { c.Obs = rec },
	}
}

// WithGrid sets the state-grid resolution (NH × NQ) and the number of time
// steps of every equilibrium solve.
func WithGrid(nh, nq, steps int) Option {
	set := func(c *SolverConfig) { c.NH, c.NQ, c.Steps = nh, nq, steps }
	return dualOption{
		solve:  set,
		market: func(c *MarketConfig) { set(&c.Solver) },
	}
}

// WithIteration tunes the best-response iteration: its budget and the
// convergence tolerance ψ_th of Algorithm 2.
func WithIteration(maxIters int, tol float64) Option {
	set := func(c *SolverConfig) { c.MaxIters, c.Tol = maxIters, tol }
	return dualOption{
		solve:  set,
		market: func(c *MarketConfig) { set(&c.Solver) },
	}
}

// WithSurrogate points the configuration at a precomputed surrogate table
// (built by `mfgcp precompute`): consumers that support the tier — the
// serving daemon, `mfgcp solve -surrogate` — answer in-region workloads by
// multilinear interpolation with the cell's declared error bound attached,
// and fall back to the exact solver outside the trust region. maxErrorBound
// tightens the trust region further: an in-region answer whose declared bound
// exceeds it falls through too (0 accepts any in-region bound). This is
// routing, not model, configuration — it is excluded from equilibrium cache
// keys.
func WithSurrogate(path string, maxErrorBound float64) Option {
	sc := SurrogateConfig{Path: path, MaxErrorBound: maxErrorBound}
	return dualOption{
		solve:  func(c *SolverConfig) { c.Surrogate = sc },
		market: func(c *MarketConfig) { c.Solver.Surrogate = sc },
	}
}

// WithSharing toggles the paid peer-sharing mechanism in the solver's utility
// (the MFG baseline is the framework with sharing disabled).
func WithSharing(enabled bool) SolveOption {
	return solveOption(func(c *SolverConfig) { c.ShareEnabled = enabled })
}

// WithWarmStart seeds the best-response iteration with a previously solved
// equilibrium (the unique fixed point is unchanged; only the iteration path
// shortens).
func WithWarmStart(eq *Equilibrium) SolveOption {
	return solveOption(func(c *SolverConfig) { c.WarmStart = eq })
}

// WithEqCache bounds an equilibrium cache shared across the epochs of the
// market run, so repeated (params, workload) pairs skip their solves.
func WithEqCache(capacity int) MarketOption {
	return marketOption(func(c *MarketConfig) { c.EqCacheSize = capacity })
}

// WithEscalation installs the bounded divergence-recovery ladder applied to
// failing equilibrium solves.
func WithEscalation(e RecoveryEscalation) MarketOption {
	return marketOption(func(c *MarketConfig) { c.Recovery = &e })
}

// WithFaultPlan injects deterministic seeded faults (EDP churn, dropped
// shares, forced solver failures) into the market run.
func WithFaultPlan(f FaultPlan) MarketOption {
	return marketOption(func(c *MarketConfig) { c.Faults = &f })
}

// WithCheckpoint enables atomic epoch-boundary snapshots and resume.
func WithCheckpoint(ck MarketCheckpointConfig) MarketOption {
	return marketOption(func(c *MarketConfig) { c.Checkpoint = ck })
}

// WithEpochs sets the number of optimisation epochs (Algorithm 1 outer loop).
func WithEpochs(n int) MarketOption {
	return marketOption(func(c *MarketConfig) { c.Epochs = n })
}

// WithStepsPerEpoch sets the simulation steps per epoch.
func WithStepsPerEpoch(n int) MarketOption {
	return marketOption(func(c *MarketConfig) { c.StepsPerEpoch = n })
}

// WithSeed fixes the market run's random seed; runs are reproducible per
// seed.
func WithSeed(seed int64) MarketOption {
	return marketOption(func(c *MarketConfig) { c.Seed = seed })
}

// WithRequesters configures the mobile-requester population driving
// per-content demand (a positive J supersedes the homogeneous demand model).
func WithRequesters(rc RequesterConfig) MarketOption {
	return marketOption(func(c *MarketConfig) { c.Requesters = rc })
}

// WithExactInterference switches the SINR model to the exact M-player
// interference sum instead of the mean-field approximation.
func WithExactInterference(on bool) MarketOption {
	return marketOption(func(c *MarketConfig) { c.ExactInterference = on })
}

// WithMarketContext bounds the market run alongside RunMarketContext's
// argument: the run stops when either ends. Equivalent to setting
// MarketConfig.Context; prefer RunMarketContext's argument when the context
// is known at run time rather than configuration time.
func WithMarketContext(ctx context.Context) MarketOption {
	return marketOption(func(c *MarketConfig) { c.Context = ctx })
}
