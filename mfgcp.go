// Package mfgcp is the public API of this reproduction of "Joint Mobile Edge
// Caching and Pricing: A Mean-Field Game Approach" (ICDE 2024). It re-exports
// the stable surface of the internal packages:
//
//   - model parameters and workloads (internal/mec, internal/engine);
//   - the mean-field equilibrium solver implementing Algorithm 2
//     (internal/engine): coupled backward-HJB / forward-FPK iteration with the
//     closed-form optimal caching control of Theorem 1;
//   - the five caching policies of the evaluation (internal/policy);
//   - the agent-based MEC market simulator implementing Algorithm 1
//     (internal/sim);
//   - the synthetic trending-video trace generator and Kaggle-schema loader
//     (internal/trace);
//   - the experiment runners regenerating every figure and table of the
//     paper (internal/experiments).
//
// Quick start:
//
//	params := mfgcp.DefaultParams()
//	cfg := mfgcp.DefaultSolverConfig(params)
//	eq, err := mfgcp.SolveEquilibrium(cfg, mfgcp.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
//	if err != nil { ... }
//	x, _ := eq.HJB.ControlAt(0, params.ChMean, 50) // optimal caching rate
package mfgcp

import (
	"context"
	"log/slog"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params holds every model constant of the MEC system (see mec.Params).
type Params = mec.Params

// DefaultParams returns the calibrated parameter set used by the experiments
// (the paper's Section-V constants mapped onto a coherent MB/$-unit system).
func DefaultParams() Params { return mec.Default() }

// PaperParams returns the literal Section-V constants of the paper, kept for
// reference; the mixed units make them unsuitable for direct simulation.
func PaperParams() Params { return mec.Paper() }

// Workload describes one content's per-epoch demand: request count |I_k|,
// popularity Π_k and timeliness L_k.
type Workload = engine.Workload

// SolverConfig controls one mean-field equilibrium computation
// (grid resolution, best-response iteration limits, damping, FPK form).
type SolverConfig = engine.Config

// SurrogateConfig points a solve at a precomputed surrogate table (built by
// `mfgcp precompute`) and bounds the interpolation error it will accept:
// Path names the table file and MaxErrorBound rejects in-region answers whose
// declared per-cell bound exceeds it (0 accepts any in-region bound). It is
// routing configuration — it never changes which equilibrium a workload
// maps to, only where the answer may come from, so it is excluded from cache
// keys.
type SurrogateConfig = engine.SurrogateConfig

// DefaultSolverConfig returns the solver settings used by the experiments.
func DefaultSolverConfig(p Params) SolverConfig { return engine.DefaultConfig(p) }

// Equilibrium is a solved mean-field equilibrium: value function and optimal
// strategy (HJB), mean-field density path (FPK), estimator snapshots and
// convergence diagnostics.
type Equilibrium = engine.Equilibrium

// Snapshot carries the mean-field estimator outputs at one time node: the
// dynamic price, the mean peer cache level, and the sharing-market terms.
type Snapshot = engine.Snapshot

// Rollout is a representative EDP's trajectory under the equilibrium
// strategy, with the full income/cost decomposition.
type Rollout = engine.Rollout

// ErrNotConverged is wrapped by SolveEquilibrium when the best-response
// iteration exhausts its iteration budget; the partial equilibrium is still
// returned for inspection.
var ErrNotConverged = engine.ErrNotConverged

// SolveEquilibrium runs the iterative best-response learning scheme
// (Algorithm 2) to the unique mean-field equilibrium (Theorem 2). It is
// SolveEquilibriumContext under context.Background(); prefer the context form
// in servers and long-running jobs so deadlines and cancellation reach the
// solver.
func SolveEquilibrium(cfg SolverConfig, w Workload) (*Equilibrium, error) {
	return SolveEquilibriumContext(context.Background(), cfg, w)
}

// SolveEquilibriumContext is the context-first equilibrium solve: ctx is
// checked at best-response-iteration granularity, so cancellation and
// deadlines abort the computation promptly. On non-convergence the partial
// equilibrium is returned with ErrNotConverged; on cancellation the error
// wraps ctx.Err().
func SolveEquilibriumContext(ctx context.Context, cfg SolverConfig, w Workload) (*Equilibrium, error) {
	s, err := engine.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return s.SolveContext(ctx, w, nil)
}

// OptimalControl is the closed-form caching rate of Theorem 1 (Eq. 21) as a
// function of the model constants and the local value-function gradient ∂qV.
func OptimalControl(p Params, dVdq float64) float64 {
	return engine.OptimalControl(p, dVdq)
}

// EquilibriumCache is a bounded, concurrency-safe store of solved equilibria
// keyed by the canonical (params, workload, grid, scheme) hash. A market run
// installs one of its own, shared by its epochs, through
// MarketConfig.EqCacheSize (WithEqCache), so repeated epochs reuse fixed
// points and a policy reused for another run does not.
//
// Deprecated: no entry point accepts a cache; bound a market run's own cache
// with WithEqCache.
type EquilibriumCache = engine.Cache

// NewEquilibriumCache returns an equilibrium cache bounded to capacity
// entries with least-recently-used eviction.
//
// Deprecated: no entry point accepts the cache it returns; bound a market
// run's own cache with WithEqCache.
func NewEquilibriumCache(capacity int) (*EquilibriumCache, error) {
	return engine.NewCache(capacity)
}

// Policy is a per-epoch caching strategy (MFG-CP or a baseline).
type Policy = policy.Policy

// NewMFGCPPolicy returns the proposed MFG-CP strategy.
func NewMFGCPPolicy() Policy { return policy.NewMFGCP() }

// NewMFGPolicy returns the MFG baseline (MFG-CP without peer sharing).
func NewMFGPolicy() Policy { return policy.NewMFG() }

// NewRRPolicy returns the Random Replacement baseline.
func NewRRPolicy() Policy { return policy.NewRR() }

// NewMPCPolicy returns the Most Popular Caching baseline.
func NewMPCPolicy() Policy { return policy.NewMPC() }

// NewUDCSPolicy returns the Ultra-Dense Caching Strategy baseline.
func NewUDCSPolicy() Policy { return policy.NewUDCS() }

// PolicyByName returns a fresh policy for its canonical (case-insensitive)
// name: "mfg-cp", "mfg", "rr", "mpc" or "udcs". It is the single name→policy
// mapping shared by the CLI flags, the market-config JSON codec and the
// serving daemon.
func PolicyByName(name string) (Policy, error) { return policy.ByName(name) }

// MarketConfig parametrises an agent-based market simulation (Algorithm 1).
type MarketConfig = sim.Config

// MarketResult is the outcome of a market run: per-EDP ledgers, per-epoch
// statistics and the strategy-computation timing of Table II.
type MarketResult = sim.Result

// Ledger is one EDP's economic account (Eq. 10 decomposition).
type Ledger = sim.Ledger

// DefaultMarketConfig returns the market-simulation settings used by the
// experiments.
func DefaultMarketConfig(p Params, pol Policy) MarketConfig { return sim.DefaultConfig(p, pol) }

// RunMarketContext executes a market simulation under ctx and cfg.Context
// (WithMarketContext), until either ends: cancellation and deadlines are
// honoured at simulation-step granularity and forwarded into the equilibrium
// solves. On interruption the partial result is returned together with an
// error wrapping ErrMarketInterrupted and the cause of the context that ended.
func RunMarketContext(ctx context.Context, cfg MarketConfig) (*MarketResult, error) {
	return sim.RunContext(ctx, cfg)
}

// ErrMarketInterrupted wraps the context error of a cancelled or timed-out
// market run; the partial result is still returned.
var ErrMarketInterrupted = sim.ErrInterrupted

// ErrDiverged is wrapped by SolveEquilibrium when the best-response iteration
// produces a non-finite or blown-up iterate.
var ErrDiverged = engine.ErrDiverged

// FaultPlan injects deterministic seeded faults (EDP churn, dropped peer
// shares, forced solver failures) into a market run; the epoch loop then
// degrades gracefully instead of aborting (see MarketConfig.Faults).
type FaultPlan = sim.FaultPlan

// ErrFaultBudgetExceeded fails a fault-injected market run whose degraded
// epochs exceeded the plan's error budget.
var ErrFaultBudgetExceeded = sim.ErrBudgetExceeded

// MarketCheckpointConfig configures atomic epoch-boundary snapshots and
// bit-for-bit resume of a market run (see MarketConfig.Checkpoint).
type MarketCheckpointConfig = sim.CheckpointConfig

// RequesterConfig parametrises the mobile-requester population of a market
// run (see MarketConfig.Requesters).
type RequesterConfig = sim.RequesterConfig

// RecoveryEscalation is the bounded divergence-recovery ladder applied to
// failing equilibrium solves (see MarketConfig.Recovery): deeper damping, a
// PDE scheme switch and time-mesh refinement, in that order.
type RecoveryEscalation = resilience.Escalation

// DefaultRecoveryEscalation returns the ladder used by the market simulator.
func DefaultRecoveryEscalation() RecoveryEscalation { return resilience.DefaultEscalation() }

// TraceDataset is a trending-video demand trace (synthetic or loaded).
type TraceDataset = trace.Dataset

// TraceGenConfig parametrises the synthetic trace generator.
type TraceGenConfig = trace.GenConfig

// DefaultTraceGenConfig returns the generator settings used by the
// experiments.
func DefaultTraceGenConfig() TraceGenConfig { return trace.DefaultGenConfig() }

// GenerateTrace builds a deterministic synthetic trending trace.
func GenerateTrace(cfg TraceGenConfig) (*TraceDataset, error) { return trace.Generate(cfg) }

// ExperimentOptions tunes the experiment runners (seed, quick mode).
type ExperimentOptions = experiments.Options

// ExperimentReport is the rendered outcome of one experiment.
type ExperimentReport = experiments.Report

// ExperimentIDs lists the reproducible figures and tables (fig3…fig14,
// table2).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's figures or tables, honouring
// opt.Context when set. It is RunExperimentContext under
// context.Background().
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentReport, error) {
	return RunExperimentContext(context.Background(), id, opt)
}

// RunExperimentContext regenerates one of the paper's figures or tables under
// ctx: the market epoch loops and equilibrium solves inside the experiment
// abort promptly on cancellation or deadline. An explicit opt.Context takes
// precedence over ctx.
func RunExperimentContext(ctx context.Context, id string, opt ExperimentOptions) (*ExperimentReport, error) {
	if opt.Context == nil {
		opt.Context = ctx
	}
	return experiments.Run(id, opt)
}

// Recorder is the telemetry sink accepted by SolverConfig.Obs,
// MarketConfig.Obs and ExperimentOptions.Obs. The zero value of every config
// leaves it nil, which is equivalent to NopRecorder: no clocks are read and
// no allocations happen in the solver hot loops.
type Recorder = obs.Recorder

// MetricsRegistry is the standard Recorder: lock-cheap counters, gauges and
// streaming-moment histograms, with JSON / expvar snapshot export.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of a MetricsRegistry's contents.
type MetricsSnapshot = obs.Snapshot

// NopRecorder discards everything; it is the implicit default.
var NopRecorder = obs.Nop

// NewRecorder returns a live metrics registry. A nil logger disables the
// structured span/event log and keeps only counters, gauges and histograms.
func NewRecorder(logger *slog.Logger) *MetricsRegistry { return obs.NewRegistry(logger) }
