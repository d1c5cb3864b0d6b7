// Package core is the compatibility facade over internal/engine, the solver
// layer implementing the paper's primary contribution: the mean-field
// estimator that replaces the pairwise information exchange of the original
// M-player game (Eqs. 14–18), the iterative best-response learning scheme
// that solves the coupled HJB–FPK system to a mean-field equilibrium
// (Algorithm 2), and the representative-agent rollouts used to evaluate
// utilities along equilibrium trajectories.
//
// Every type here is an alias of its engine counterpart, so existing
// importers keep compiling and values flow freely between the two packages.
// New code should prefer internal/engine directly: it exposes the reusable
// Session (pre-allocated workspaces, zero-allocation iteration loop) and the
// bounded equilibrium Cache that this facade's one-shot Solve does not.
package core

import (
	"io"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/mec"
)

// Workload is the per-epoch, per-content demand descriptor. See
// engine.Workload.
type Workload = engine.Workload

// Config controls one mean-field equilibrium computation (Algorithm 2). See
// engine.Config.
type Config = engine.Config

// KernelConfig is the retired PDE kernel tuning block. See
// engine.KernelConfig.
//
// Deprecated: the fields are validated and otherwise ignored.
type KernelConfig = engine.KernelConfig

// Kernel precision names accepted by KernelConfig.Precision.
//
// Deprecated: every precision runs the float64 kernel.
const (
	PrecisionFloat64 = engine.PrecisionFloat64
	PrecisionFloat32 = engine.PrecisionFloat32
)

// SurrogateConfig points a solve at a precomputed surrogate table and bounds
// the interpolation error it will accept. See engine.SurrogateConfig.
type SurrogateConfig = engine.SurrogateConfig

// Equilibrium is the solved mean-field equilibrium for one content over one
// optimisation epoch. See engine.Equilibrium.
type Equilibrium = engine.Equilibrium

// Snapshot captures every mean-field quantity the generic EDP needs at one
// time node. See engine.Snapshot.
type Snapshot = engine.Snapshot

// Estimator computes mean-field snapshots from a density λ and a control
// field x on a fixed state grid. See engine.Estimator.
type Estimator = engine.Estimator

// Rollout is the trajectory of a representative EDP playing the equilibrium
// strategy against the mean field. See engine.Rollout.
type Rollout = engine.Rollout

// Session is the reusable solver session with pre-allocated workspaces. See
// engine.Session.
type Session = engine.Session

// EquilibriumCache is the bounded, concurrency-safe equilibrium store. See
// engine.Cache.
type EquilibriumCache = engine.Cache

// CacheExportEntry is one exported cache entry in LRU order. See
// engine.CacheExportEntry.
type CacheExportEntry = engine.CacheExportEntry

// ErrNotConverged is wrapped by Solve when the best-response iteration hits
// MaxIters with a residual above Tol.
var ErrNotConverged = engine.ErrNotConverged

// ErrDiverged is wrapped by Solve when the best-response iteration produces a
// non-finite or blown-up iterate. See engine.ErrDiverged.
var ErrDiverged = engine.ErrDiverged

// DefaultConfig returns the solver configuration used by the experiments.
func DefaultConfig(p mec.Params) Config { return engine.DefaultConfig(p) }

// Solve runs the iterative best-response learning scheme (Algorithm 2) with
// a throwaway engine session. Sustained callers (policies, epoch loops)
// should hold an engine.Session and/or engine.Cache instead.
func Solve(cfg Config, w Workload) (*Equilibrium, error) { return engine.Solve(cfg, w) }

// NewSession preallocates a reusable solver session for cfg.
func NewSession(cfg Config) (*Session, error) { return engine.NewSession(cfg) }

// NewEquilibriumCache returns a bounded LRU equilibrium cache.
func NewEquilibriumCache(capacity int) (*EquilibriumCache, error) { return engine.NewCache(capacity) }

// NewEstimator validates the parameters and returns an estimator on g.
func NewEstimator(p mec.Params, g grid.Grid2D) (*Estimator, error) { return engine.NewEstimator(p, g) }

// OptimalControl is the closed-form maximiser of Theorem 1 (Eq. 21).
func OptimalControl(p mec.Params, dVdq float64) float64 { return engine.OptimalControl(p, dVdq) }

// ReadEquilibrium deserialises an equilibrium written by Equilibrium.WriteTo.
func ReadEquilibrium(r io.Reader) (*Equilibrium, error) { return engine.ReadEquilibrium(r) }

// MarshalEquilibrium serialises an equilibrium for checkpointing, pruning the
// warm-start ancestry chain. See engine.MarshalEquilibrium.
func MarshalEquilibrium(eq *Equilibrium) ([]byte, error) { return engine.MarshalEquilibrium(eq) }

// UnmarshalEquilibrium deserialises an equilibrium written by
// MarshalEquilibrium.
func UnmarshalEquilibrium(data []byte) (*Equilibrium, error) {
	return engine.UnmarshalEquilibrium(data)
}

// CacheKey builds the canonical equilibrium-cache key of (cfg, w). See
// engine.CacheKey.
func CacheKey(cfg Config, w Workload) string { return engine.CacheKey(cfg, w) }
