// Package verify is the numerical verification subsystem of the MFG-CP
// reproduction: it turns the paper's mathematical invariants into executable
// oracles and exercises them with differential harnesses, convergence-order
// estimation and property-based configuration generators.
//
// The package is organised in four layers:
//
//   - invariant oracles over a solved Equilibrium (oracles.go): FPK mass
//     conservation and density non-negativity, best-response residual
//     contraction, the HJB terminal condition, and the Eq. 21 structure of
//     the optimal control (range, clamp saturation, monotonicity in ∂qV);
//   - differential harnesses (differential.go): implicit vs explicit
//     pde.Scheme agreement, cache-hit vs cold-solve bit-equality,
//     checkpoint/resume vs uninterrupted-run equality, and mean-field vs
//     finite-M (internal/exactgame) best-response agreement as M grows;
//   - convergence-order estimation by time-mesh refinement (order.go),
//     checked against the scheme's nominal pde.Scheme.Order;
//   - seeded, shrinkable generators of valid Params/Config/Workload
//     (generators.go) feeding all of the above over a parameter sweep.
//
// Run wires the layers into tiered check suites (run.go); the `mfgcp verify`
// subcommand and the tagged test suites are thin wrappers around it.
package verify

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Tier selects how much work a verification run performs.
type Tier string

const (
	// Quick is the per-push gate: every oracle and harness on small grids,
	// a short property sweep. It finishes in a few seconds.
	Quick Tier = "quick"
	// Full is the nightly tier: wider property sweeps, order estimation for
	// both schemes and both PDEs, and the finite-M differential check.
	Full Tier = "full"
)

// Violation is one concrete breach of an invariant: which oracle fired,
// where, the worst observed value and the limit it was held against.
type Violation struct {
	Oracle string  `json:"oracle"`
	Detail string  `json:"detail"`
	Worst  float64 `json:"worst"`
	Limit  float64 `json:"limit"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (worst %.6g, limit %.6g)", v.Oracle, v.Detail, v.Worst, v.Limit)
}

// violationf builds a Violation with a formatted detail string.
func violationf(oracle string, worst, limit float64, format string, args ...any) Violation {
	return Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...), Worst: worst, Limit: limit}
}

// CheckResult is the outcome of one named check in a Run.
type CheckResult struct {
	Name       string      `json:"name"`
	Tier       Tier        `json:"tier"`
	Passed     bool        `json:"passed"`
	Duration   float64     `json:"duration_seconds"`
	Violations []Violation `json:"violations,omitempty"`
	// Err records a harness failure (a solve that errored, an invalid
	// generated case): the check could not run to completion, which fails
	// the report just like a violation would.
	Err string `json:"error,omitempty"`
}

// Report is the JSON document `mfgcp verify` emits: one entry per check,
// plus the overall verdict.
type Report struct {
	Tier    Tier          `json:"tier"`
	Seed    int64         `json:"seed"`
	Passed  bool          `json:"passed"`
	Checks  []CheckResult `json:"checks"`
	Elapsed float64       `json:"elapsed_seconds"`
}

// Violations returns every violation across all checks.
func (r *Report) Violations() []Violation {
	var all []Violation
	for _, c := range r.Checks {
		all = append(all, c.Violations...)
	}
	return all
}

// Summary renders a terse human-readable report (one line per check).
func (r *Report) Summary() string {
	var b strings.Builder
	for _, c := range r.Checks {
		status := "ok"
		if !c.Passed {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-40s %-4s %6.2fs\n", c.Name, status, c.Duration)
		for _, v := range c.Violations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
		if c.Err != "" {
			fmt.Fprintf(&b, "    error: %s\n", c.Err)
		}
	}
	verdict := "PASSED"
	if !r.Passed {
		verdict = "FAILED"
	}
	fmt.Fprintf(&b, "verify %s: %s (%d checks, %.1fs)\n", r.Tier, verdict, len(r.Checks), r.Elapsed)
	return b.String()
}

// MarshalIndent renders the report as indented JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Tolerances collects every numerical threshold the oracles and harnesses
// hold solver output against. The defaults are derived from the paper's
// equations and the schemes' nominal accuracy; DESIGN.md §11 records the
// justification for each.
type Tolerances struct {
	// MassTol bounds the relative drift of the pre-renormalisation FPK mass
	// per step, |RawMass[n] − RawMass[0]| / RawMass[0]. The conservative
	// discretisation of Eq. 15 conserves mass to solver round-off; 1e-6
	// leaves three orders of magnitude of slack over float64 accumulation
	// error on the largest grids.
	MassTol float64

	// TerminalTol bounds |V(T,·) − terminal condition|. The paper's scrap
	// value is identically zero and the solver writes it exactly, so the
	// default is exact equality.
	TerminalTol float64

	// ClampTol bounds the deviation between the stored strategy X and the
	// Eq. 21 closed form recomputed from ∂qV of the stored value function.
	// Both use the same central-difference gradient, so the comparison is
	// exact up to floating-point evaluation order; 1e-9 absolute.
	ClampTol float64

	// ResidualGrowth and ResidualUpFrac govern the contraction oracle over
	// Algorithm 2's residual series: an iteration "jumps" when the residual
	// grows by more than ResidualGrowth×; at most ResidualUpFrac of the
	// iterations may jump (damped fixed-point iterations are not strictly
	// monotone, but must contract on balance).
	ResidualGrowth float64
	ResidualUpFrac float64

	// SchemeTol bounds the implicit-vs-explicit disagreement of the market
	// observables (price, mean control, q̄) in the sup norm over time, each
	// normalised to its natural scale (p̂, 1, Qk). Both schemes are O(dt) so
	// they agree to O(dt) of each other; on the default differential grid
	// (dt = 1/48) the measured worst gap is 0.014 (mean control), and 0.03
	// keeps a 2× margin while still catching an O(1) defect (a wrong sign
	// or operator moves the observables by ≥ 0.1).
	SchemeTol float64

	// DensityTol bounds the implicit-vs-explicit disagreement of the final
	// density in the L1 norm (densities integrate to 1, so this is a
	// total-variation-style bound on the same O(dt) gap). Measured 0.043 at
	// dt = 1/48 on the default grid; 0.08 keeps a ~2× margin.
	DensityTol float64

	// OrderSlack is subtracted from the scheme's nominal order before
	// comparing with the observed order from mesh refinement: observed ≥
	// nominal − slack. Pre-asymptotic effects and splitting-error mixing
	// make the observed order fluctuate around 1; 0.45 keeps the check
	// sharp enough to catch an O(1)-consistent (order-0) regression.
	OrderSlack float64

	// FiniteMTol bounds the sup-over-time gap between the finite-M
	// exact-game mean strategy and the MFG mean control at the largest M
	// tested; FiniteMGrowth is the tolerated non-monotonicity factor when
	// checking that the gap shrinks as M grows.
	FiniteMTol    float64
	FiniteMGrowth float64
}

// DefaultTolerances returns the thresholds justified in DESIGN.md §11.
func DefaultTolerances() Tolerances {
	return Tolerances{
		MassTol:        1e-6,
		TerminalTol:    0,
		ClampTol:       1e-9,
		ResidualGrowth: 1.5,
		ResidualUpFrac: 0.34,
		SchemeTol:      0.03,
		DensityTol:     0.08,
		OrderSlack:     0.45,
		FiniteMTol:     0.05,
		FiniteMGrowth:  1.25,
	}
}

// Validate rejects tolerance sets that would make the oracles vacuous or
// self-contradictory (negative bounds, non-finite values).
func (t Tolerances) Validate() error {
	check := func(name string, v float64) error {
		if v != v || v < 0 {
			return fmt.Errorf("verify: tolerance %s must be non-negative and finite, got %g", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MassTol", t.MassTol}, {"TerminalTol", t.TerminalTol}, {"ClampTol", t.ClampTol},
		{"SchemeTol", t.SchemeTol}, {"DensityTol", t.DensityTol},
		{"OrderSlack", t.OrderSlack}, {"FiniteMTol", t.FiniteMTol},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if !(t.ResidualGrowth >= 1) {
		return fmt.Errorf("verify: ResidualGrowth must be ≥ 1, got %g", t.ResidualGrowth)
	}
	if !(t.ResidualUpFrac >= 0 && t.ResidualUpFrac <= 1) {
		return fmt.Errorf("verify: ResidualUpFrac must lie in [0,1], got %g", t.ResidualUpFrac)
	}
	if !(t.FiniteMGrowth >= 1) {
		return fmt.Errorf("verify: FiniteMGrowth must be ≥ 1, got %g", t.FiniteMGrowth)
	}
	return nil
}

// timeCheck wraps fn in a CheckResult, timing it and folding a returned
// error into the result.
func timeCheck(name string, tier Tier, fn func() ([]Violation, error)) CheckResult {
	start := time.Now()
	violations, err := fn()
	res := CheckResult{
		Name:       name,
		Tier:       tier,
		Duration:   time.Since(start).Seconds(),
		Violations: violations,
		Passed:     len(violations) == 0 && err == nil,
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}
