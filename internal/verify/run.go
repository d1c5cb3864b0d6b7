package verify

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Options configures a verification run. Zero-valued fields select the
// defaults: the small verification grid over the calibrated parameters, the
// default workload, DefaultTolerances, tier Quick.
type Options struct {
	Tier Tier
	Seed int64
	// Cases is the property-sweep size (0 selects the tier default: 3 for
	// quick, 16 for full).
	Cases int
	// Solver carries the model parameters too (Solver.Params).
	Solver   engine.Config
	Workload engine.Workload
	Tol      Tolerances
	Obs      obs.Recorder
}

// DefaultSolverConfig is the small, CFL-safe grid the differential and
// invariant checks run on by default: large enough to be representative
// (48 time steps keep the O(dt) implicit/explicit gap well inside
// SchemeTol), small enough that the quick tier stays in single-digit
// seconds.
func DefaultSolverConfig(p mec.Params) engine.Config {
	cfg := engine.DefaultConfig(p)
	cfg.NH = 7
	cfg.NQ = 15
	cfg.Steps = 48
	return cfg
}

// normalise fills the zero-valued option fields with their defaults.
func (o Options) normalise() Options {
	if o.Tier == "" {
		o.Tier = Quick
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Solver.NH == 0 {
		o.Solver = DefaultSolverConfig(mec.Default())
	}
	if o.Workload == (engine.Workload{}) {
		o.Workload = engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
	}
	if o.Tol == (Tolerances{}) {
		o.Tol = DefaultTolerances()
	}
	if o.Cases == 0 {
		if o.Tier == Full {
			o.Cases = 16
		} else {
			o.Cases = 3
		}
	}
	return o
}

// simConfig builds the small market configuration of the checkpoint/resume
// differential: a 12-EDP, 4-content MFG-CP market over 3 epochs, seeded
// from the run seed.
func (o Options) simConfig() sim.Config {
	p := o.Solver.Params
	p.M = 12
	p.K = 4
	cfg := sim.DefaultConfig(p, policy.NewMFGCP())
	cfg.Seed = o.Seed
	cfg.Epochs = 3
	cfg.StepsPerEpoch = 10
	cfg.Solver.NH = 5
	cfg.Solver.NQ = 15
	cfg.Solver.Steps = 24
	cfg.Solver.MaxIters = 20
	cfg.EqCacheSize = 8
	return cfg
}

// Run executes the tier's check suite and returns the report. A non-nil
// error means the runner itself failed (invalid options, cancelled
// context); check failures are reported through Report.Passed.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.normalise()
	if opts.Tier != Quick && opts.Tier != Full {
		return nil, fmt.Errorf("verify: unknown tier %q (want %q or %q)", opts.Tier, Quick, Full)
	}
	if err := opts.Tol.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Solver.Validate(); err != nil {
		return nil, fmt.Errorf("verify: solver config: %w", err)
	}
	if err := opts.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("verify: workload: %w", err)
	}
	rec := obs.OrNop(opts.Obs)
	tol := opts.Tol

	type check struct {
		name string
		full bool // full tier only
		fn   func() ([]Violation, error)
	}
	checks := []check{
		{name: "invariants/default-config", fn: func() ([]Violation, error) {
			eq, err := solveFor(opts.Solver, opts.Workload)
			if err != nil {
				return nil, err
			}
			return AllInvariants(eq, tol), nil
		}},
		{name: "invariants/property-sweep", fn: func() ([]Violation, error) {
			return propertySweep(ctx, opts, tol)
		}},
		{name: "eq21/monotone-clamp", fn: func() ([]Violation, error) {
			out := ControlMonotone(opts.Solver.Params, 101)
			gen := NewGen(opts.Seed + 17)
			for i := 0; i < 3; i++ {
				out = append(out, ControlMonotone(gen.Params(), 101)...)
			}
			return out, nil
		}},
		{name: "differential/scheme-agreement", fn: func() ([]Violation, error) {
			return SchemeAgreement(opts.Solver, opts.Workload, tol)
		}},
		{name: "differential/cache-bit-equality", fn: func() ([]Violation, error) {
			return CacheBitEquality(opts.Solver, opts.Workload)
		}},
		{name: "differential/surrogate", fn: func() ([]Violation, error) {
			return SurrogateAgreement(opts.Solver, opts.Workload, opts.Seed)
		}},
		{name: "differential/checkpoint-resume", fn: func() ([]Violation, error) {
			dir, cleanup, err := scratchDir()
			if err != nil {
				return nil, err
			}
			defer cleanup()
			return CheckpointResume(opts.simConfig, dir)
		}},
		{name: "order/fpk-implicit", fn: func() ([]Violation, error) {
			return TemporalOrderFPK("implicit", 16, tol)
		}},
		{name: "order/fpk-explicit", full: true, fn: func() ([]Violation, error) {
			return TemporalOrderFPK("explicit", 16, tol)
		}},
		{name: "order/hjb-implicit", full: true, fn: func() ([]Violation, error) {
			return TemporalOrderHJB("implicit", 16, tol)
		}},
		{name: "order/hjb-explicit", full: true, fn: func() ([]Violation, error) {
			return TemporalOrderHJB("explicit", 16, tol)
		}},
		{name: "differential/finite-m", full: true, fn: func() ([]Violation, error) {
			cfg := opts.Solver
			cfg.NH, cfg.NQ, cfg.Steps = 7, 21, 32
			return FiniteMAgreement(cfg, opts.Workload, []int{3, 6, 12}, tol)
		}},
	}

	start := time.Now()
	report := &Report{Tier: opts.Tier, Seed: opts.Seed, Passed: true}
	for _, c := range checks {
		if c.full && opts.Tier != Full {
			continue
		}
		if err := ctx.Err(); err != nil {
			return report, fmt.Errorf("verify: cancelled before %s: %w", c.name, err)
		}
		res := timeCheck(c.name, opts.Tier, c.fn)
		report.Checks = append(report.Checks, res)
		rec.Add("verify.checks", 1)
		if !res.Passed {
			rec.Add("verify.failures", 1)
			report.Passed = false
		}
	}
	report.Elapsed = time.Since(start).Seconds()
	rec.Gauge("verify.elapsed_seconds", report.Elapsed)
	return report, nil
}

// propertySweep solves every generated case and holds the result against
// the full invariant catalogue; a failing case is shrunk before reporting
// so the violation points at the simplest reproducing input.
func propertySweep(ctx context.Context, opts Options, tol Tolerances) ([]Violation, error) {
	gen := NewGen(opts.Seed)
	var out []Violation
	for i := 0; i < opts.Cases; i++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		c := gen.Case()
		violations, err := caseViolations(c, tol)
		if err != nil {
			return out, fmt.Errorf("%s: %w", c, err)
		}
		if len(violations) == 0 {
			continue
		}
		shrunk := Shrink(c, func(cand Case) bool {
			v, err := caseViolations(cand, tol)
			return err == nil && len(v) > 0
		}, 6)
		violations, err = caseViolations(shrunk, tol)
		if err != nil {
			return out, fmt.Errorf("%s: %w", shrunk, err)
		}
		for _, v := range violations {
			v.Detail = fmt.Sprintf("%s [%s]", v.Detail, shrunk)
			out = append(out, v)
		}
	}
	return out, nil
}

// caseViolations solves one generated case and applies the invariant
// oracles.
func caseViolations(c Case, tol Tolerances) ([]Violation, error) {
	if err := c.Config.Validate(); err != nil {
		return nil, fmt.Errorf("generated config invalid: %w", err)
	}
	if err := c.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("generated workload invalid: %w", err)
	}
	eq, err := solveFor(c.Config, c.Workload)
	if err != nil {
		return nil, err
	}
	return AllInvariants(eq, tol), nil
}
