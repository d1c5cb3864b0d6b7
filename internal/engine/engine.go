// Package engine is the reusable solver layer behind the MFG-CP framework:
// it owns the mean-field estimator (Eqs. 14–18), the iterative best-response
// learning scheme that drives the coupled HJB–FPK system to a mean-field
// equilibrium (Algorithm 2), and the representative-agent rollouts evaluated
// along equilibrium trajectories.
//
// The package turns the one-shot solver of earlier revisions into a service
// layer with three building blocks:
//
//   - a Session owning every grid, tridiagonal, value and density workspace,
//     so the damped best-response loop runs with zero per-iteration heap
//     allocations and repeated solves reuse the same buffers;
//   - one pde.Scheme time-integrator choice (implicit splitting by default,
//     the CFL-bounded explicit integrator as an ablation), named by
//     Config.Scheme and resolved by pde.ParseScheme;
//   - a bounded, concurrency-safe Cache of solved equilibria keyed by a
//     canonical encoding of (quantised params, workload, grid resolution),
//     giving the policy and simulation layers warm-start reuse across
//     contents and epochs.
package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mec"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/pde"
)

// Workload is the per-epoch, per-content demand descriptor feeding one
// equilibrium computation: the request load |I_k|, the current popularity
// Π_k(t) and the timeliness level L_k(t). Algorithm 1 refreshes these from
// the trace at the start of every optimisation epoch and holds them fixed
// within it ("the change in requesters' demands occurs at a relatively slow
// rate compared to the time scale of the optimization epoch").
type Workload struct {
	Requests   float64
	Pop        float64
	Timeliness float64
}

// Validate checks the workload descriptor. NaN compares false against every
// bound, so the range guards alone would wave non-finite workloads through
// into the solver (where they poison every iterate); reject them explicitly,
// mirroring the config validation.
func (w Workload) Validate() error {
	if math.IsNaN(w.Requests) || math.IsInf(w.Requests, 0) || w.Requests < 0 {
		return fmt.Errorf("core: workload requests must be non-negative and finite, got %g", w.Requests)
	}
	if math.IsNaN(w.Pop) || w.Pop < 0 || w.Pop > 1 {
		return fmt.Errorf("core: workload popularity must lie in [0,1], got %g", w.Pop)
	}
	if math.IsNaN(w.Timeliness) || math.IsInf(w.Timeliness, 0) || w.Timeliness < 0 {
		return fmt.Errorf("core: workload timeliness must be non-negative and finite, got %g", w.Timeliness)
	}
	return nil
}

// Config controls one mean-field equilibrium computation (Algorithm 2).
type Config struct {
	Params mec.Params

	// Grid resolution: NH×NQ state nodes, Steps time intervals over the
	// horizon T.
	NH, NQ, Steps int

	// MaxIters is ψ_th, the cap on best-response iterations; Tol is the
	// sup-norm threshold on the strategy change |x^ψ − x^(ψ−1)| below which
	// the iteration stops (Algorithm 2, line 6).
	MaxIters int
	Tol      float64

	// Damping γ ∈ (0,1] relaxes the strategy update,
	// x ← (1−γ)·x_old + γ·x_new, which accelerates and robustifies the
	// fixed-point iteration (γ=1 reproduces the undamped Algorithm 2).
	Damping float64

	// BlowupResidual is the strategy-residual threshold above which the
	// best-response iteration is declared divergent and abandoned with
	// ErrDiverged instead of burning the remaining iteration budget. Zero
	// selects the default of 1e8; the caching rate lives in [0,1], so any
	// genuine iterate keeps the residual at or below 1.
	BlowupResidual float64

	// FPKForm selects the forward-equation discretisation (conservative by
	// default; pde.Advective reproduces the paper-literal Eq. 15).
	FPKForm pde.FPKForm

	// Scheme selects the time integrator of both PDEs by name: "implicit"
	// (the default, also selected by the empty string) or "explicit", the
	// CFL-bounded ablation.
	Scheme string

	// Surrogate points solves at a precomputed interpolation table (written
	// by `mfgcp precompute`): serving layers consult the table before the
	// engine and fall through to a real solve when the request is outside
	// the table's trust region. The engine itself ignores the field — a
	// Session always computes the true equilibrium — so it is excluded from
	// CacheKey: routing configuration must not fragment the equilibrium
	// cache.
	Surrogate SurrogateConfig

	// ShareEnabled distinguishes MFG-CP (true) from the MFG baseline
	// without peer sharing (false).
	ShareEnabled bool

	// InitLambda optionally overrides the initial density (flattened over
	// the grid): one finite, non-negative value per node, with a positive
	// sum. When nil, the Section-V initialisation is used: Gaussian over q
	// with mean InitMeanFrac·Qk and sd InitStdFrac·Qk, and the OU
	// stationary Gaussian over h.
	InitLambda []float64 `json:",omitempty"`

	// WarmStart optionally seeds the best-response iteration with the
	// strategy and density paths of a previously solved equilibrium on the
	// same grid and time mesh (Algorithm 1 runs one solve per content per
	// epoch; slowly-varying workloads converge in far fewer iterations from
	// the previous epoch's fixed point). The seed is an input, not part of
	// the result: a solved equilibrium's Config.WarmStart is always nil, so
	// no equilibrium pins the ones it descends from.
	WarmStart *Equilibrium `json:"-"`

	// Obs receives solver telemetry — per-iteration residual events, HJB and
	// FPK pass spans, convergence counters ("core.solver.*" names) and the
	// engine-layer session/cache counters ("engine.*" names). Nil means
	// no-op: library users and tests opt in explicitly, and the hot loops pay
	// nothing by default. The field is dropped from serialised archives.
	Obs obs.Recorder `json:"-"`
}

// SurrogateConfig routes solves at a precomputed equilibrium table. The zero
// value disables the surrogate tier entirely.
type SurrogateConfig struct {
	// Path of the table file written by `mfgcp precompute`. Empty disables
	// surrogate answers.
	Path string
	// MaxErrorBound, when positive, tightens the trust region: a table cell
	// whose declared interpolation error bound exceeds it falls through to a
	// real solve even though the request lies inside the lattice. Zero
	// accepts every finite declared bound.
	MaxErrorBound float64
}

// Validate checks the surrogate routing configuration.
func (s SurrogateConfig) Validate() error {
	if math.IsNaN(s.MaxErrorBound) || math.IsInf(s.MaxErrorBound, 0) || s.MaxErrorBound < 0 {
		return fmt.Errorf("core: surrogate MaxErrorBound must be non-negative and finite, got %g", s.MaxErrorBound)
	}
	return nil
}

// DefaultConfig returns the solver configuration used by the experiments.
func DefaultConfig(p mec.Params) Config {
	return Config{
		Params:       p,
		NH:           13,
		NQ:           61,
		Steps:        120,
		MaxIters:     40,
		Tol:          1e-3,
		Damping:      0.6,
		FPKForm:      pde.Conservative,
		ShareEnabled: true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.NH < 3 || c.NQ < 3 {
		return fmt.Errorf("core: grid must be at least 3×3, got %d×%d", c.NH, c.NQ)
	}
	if c.Steps < 2 {
		return fmt.Errorf("core: need at least 2 time steps, got %d", c.Steps)
	}
	if c.MaxIters < 1 {
		return fmt.Errorf("core: MaxIters must be ≥ 1, got %d", c.MaxIters)
	}
	// NaN fails every comparison, so "residual < Tol" with Tol = NaN would
	// never stop the iteration early and "residual < +Inf" would stop it
	// immediately: both are configuration bugs, rejected here explicitly.
	if math.IsNaN(c.Tol) || math.IsInf(c.Tol, 0) || !(c.Tol > 0) {
		return fmt.Errorf("core: Tol must be positive and finite, got %g", c.Tol)
	}
	if math.IsNaN(c.Damping) || !(c.Damping > 0 && c.Damping <= 1) {
		return fmt.Errorf("core: Damping must lie in (0,1], got %g", c.Damping)
	}
	if math.IsNaN(c.BlowupResidual) || math.IsInf(c.BlowupResidual, 0) || c.BlowupResidual < 0 {
		return fmt.Errorf("core: BlowupResidual must be non-negative and finite, got %g", c.BlowupResidual)
	}
	if _, err := pde.ParseScheme(c.Scheme); err != nil {
		return err
	}
	if err := c.validateInitLambda(); err != nil {
		return err
	}
	return c.Surrogate.Validate()
}

// validateInitLambda checks an initial-density override: one value per grid
// node, each finite and non-negative, with a positive total mass.
func (c Config) validateInitLambda() error {
	if c.InitLambda == nil {
		return nil
	}
	if len(c.InitLambda) != c.NH*c.NQ {
		return fmt.Errorf("core: InitLambda has %d nodes, grid has %d", len(c.InitLambda), c.NH*c.NQ)
	}
	var mass float64
	for k, v := range c.InitLambda {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("core: InitLambda[%d] must be non-negative and finite, got %g", k, v)
		}
		mass += v
	}
	if !(mass > 0) {
		return fmt.Errorf("core: InitLambda must have a positive total mass, got %g", mass)
	}
	return nil
}

// Equilibrium is the solved mean-field equilibrium for one content over one
// optimisation epoch: the value function and optimal strategy (HJB), the
// mean-field density path (FPK), the estimator snapshots at every time node,
// and the convergence diagnostics of the best-response iteration.
type Equilibrium struct {
	Config   Config
	Workload Workload
	Grid     grid.Grid2D
	Time     grid.TimeMesh

	HJB       *pde.HJBSolution
	FPK       *pde.FPKSolution
	Snapshots []Snapshot

	Iterations int
	Converged  bool
	// Residuals[i] is the sup-norm strategy change after iteration i+1.
	Residuals []float64
}

// ErrNotConverged is wrapped by Solve when the best-response iteration hits
// MaxIters with a residual above Tol. The partially converged equilibrium is
// still returned alongside it so callers can inspect diagnostics.
var ErrNotConverged = errors.New("core: best-response iteration did not converge")

// ErrDiverged is wrapped by Solve when the best-response iteration produces a
// non-finite iterate (NaN/Inf residual or density) or blows past
// Config.BlowupResidual. Unlike ErrNotConverged, the iterates are numerically
// meaningless, so no partial equilibrium accompanies it; callers recover by
// escalating the solve configuration (see internal/resilience).
var ErrDiverged = errors.New("core: best-response iteration diverged")

// SnapshotAt returns the estimator snapshot nearest to time t.
func (eq *Equilibrium) SnapshotAt(t float64) Snapshot {
	n := int(t/eq.Time.Dt() + 0.5)
	if n < 0 {
		n = 0
	}
	if n >= len(eq.Snapshots) {
		n = len(eq.Snapshots) - 1
	}
	return eq.Snapshots[n]
}

// MarginalQ returns the q-marginal of the mean-field density at time index n
// (the quantity plotted in Figs. 4, 6 and 7).
func (eq *Equilibrium) MarginalQ(n int) ([]float64, error) {
	if eq.FPK == nil {
		return nil, errors.New("core: equilibrium has no FPK solution")
	}
	if n < 0 || n >= len(eq.FPK.Lambda) {
		return nil, fmt.Errorf("core: time index %d out of range [0,%d)", n, len(eq.FPK.Lambda))
	}
	dst := make([]float64, eq.Grid.Q.N)
	if err := numerics.MarginalQ(eq.Grid, dst, eq.FPK.Lambda[n]); err != nil {
		return nil, err
	}
	return dst, nil
}
