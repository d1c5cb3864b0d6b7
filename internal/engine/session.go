package engine

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"time"

	"repro/internal/grid"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/sde"
)

// Session owns every buffer one equilibrium computation needs — the state
// grid, the PDE workspace (tridiagonal sweepers and scratch fields), the
// value/strategy/density time paths, the per-step utility contexts and the
// snapshot array — so the damped best-response loop of Algorithm 2 runs with
// zero per-iteration heap allocations, and repeated solves (one per content
// per epoch in Algorithm 1) reuse the same memory. A Session is bound to one
// Config (grid resolution, scheme, tolerances); workloads and warm starts
// vary per solve. It is not safe for concurrent use; parallel workers hold
// one session each.
type Session struct {
	cfg     Config
	g       grid.Grid2D
	tm      grid.TimeMesh
	channel *mec.ChannelModel
	est     *Estimator

	// The separable model terms, each evaluated once per lifetime of its
	// inputs instead of at every PDE node: the Eq. 21 constants, the Eq. 4
	// coefficients, and H(h) and Qk/H(h) at each h node live as long as the
	// session, like the estimator's q tables; the Eq. 4 law at the
	// workload's Π and ξ^L lasts one solve; row, the utility terms free of x
	// and h at each q node, lasts one time level of one HJB sweep.
	control controlLaw
	drift   sde.CacheDrift
	rate    []float64
	qkRate  []float64
	law     sde.DriftLaw
	row     []mec.QTerms

	ws      *pde.Workspace
	hjb     *pde.HJBSolution
	fpk     *pde.FPKSolution
	paths   []float64 // the backing array of hjb.V, hjb.X and fpk.Lambda
	hjbProb *pde.HJBProblem
	fpkProb *pde.FPKProblem

	lambda0    []float64 // initial density (owned copy)
	lambdaPath [][]float64
	xPath      [][]float64
	snaps      []Snapshot
	ctxs       []*mec.UtilityContext
	residuals  []float64 // cap MaxIters, reset per solve

	workload Workload // the workload of the solve in flight
	solves   int      // completed solves, for the reuse metric

	// trace is the request-scoped stage accumulator of the solve in flight
	// (nil for untraced solves — the steady-state zero-allocation contract
	// only pays two nil checks per iteration for it).
	trace *obs.ReqTrace
}

// NewSession validates the configuration and preallocates every workspace.
// The WarmStart and InitLambda fields of cfg configure the session-wide
// defaults; per-solve warm starts are passed to Solve.
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Params

	hAxis, err := grid.NewAxis(p.HMin, p.HMax, cfg.NH)
	if err != nil {
		return nil, err
	}
	qAxis, err := grid.NewAxis(0, p.Qk, cfg.NQ)
	if err != nil {
		return nil, err
	}
	g, err := grid.NewGrid2D(hAxis, qAxis)
	if err != nil {
		return nil, err
	}
	tm, err := grid.NewTimeMesh(p.Horizon, cfg.Steps)
	if err != nil {
		return nil, err
	}
	scheme, err := pde.ParseScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	channel, err := mec.NewChannelModel(p)
	if err != nil {
		return nil, err
	}
	est, err := NewEstimator(p, g)
	if err != nil {
		return nil, err
	}
	ws, err := pde.NewWorkspace(g)
	if err != nil {
		return nil, err
	}

	// Initial density.
	lambda0 := slices.Clone(cfg.InitLambda)
	if lambda0 == nil {
		sdH := math.Sqrt(channel.OU().StationaryVar())
		if sdH < 1e-3 {
			sdH = 1e-3
		}
		lambda0, err = pde.GaussianDensity(g, p.ChMean, sdH, p.InitMeanFrac*p.Qk, p.InitStdFrac*p.Qk)
		if err != nil {
			return nil, err
		}
	}

	s := &Session{
		cfg:        cfg,
		g:          g,
		tm:         tm,
		channel:    channel,
		est:        est,
		ws:         ws,
		paths:      make([]float64, 3*(cfg.Steps+1)*g.Size()),
		lambda0:    lambda0,
		lambdaPath: make([][]float64, cfg.Steps+1),
		xPath:      make([][]float64, cfg.Steps+1),
		snaps:      make([]Snapshot, cfg.Steps+1),
		ctxs:       make([]*mec.UtilityContext, cfg.Steps+1),
		residuals:  make([]float64, 0, cfg.MaxIters),
		control:    newControlLaw(&p),
		rate:       make([]float64, g.H.N),
		qkRate:     make([]float64, g.H.N),
		row:        make([]mec.QTerms, g.Q.N),
	}
	v, x, lambda := splitPaths(s.paths, cfg.Steps+1, g.Size())
	s.hjb = &pde.HJBSolution{Grid: g, Time: tm, V: v, X: x}
	s.fpk = &pde.FPKSolution{Grid: g, Time: tm, Lambda: lambda, RawMass: make([]float64, cfg.Steps+1)}
	for n := range s.xPath {
		s.xPath[n] = g.NewField()
		ctx, err := mec.NewUtilityContext(p, channel)
		if err != nil {
			return nil, err
		}
		s.ctxs[n] = ctx
	}
	s.drift = s.ctxs[0].CacheDrift()
	for i := range s.rate {
		s.rate[i] = channel.Rate(g.H.At(i))
		s.qkRate[i] = p.Qk / s.rate[i]
	}

	// The PDE problems and their level callbacks are built once: the
	// callbacks are the session's level kernels, which read the ctxs and
	// xPath contents refreshed every iteration, so the steady-state loop
	// never rebuilds them.
	ou := channel.OU()
	s.hjbProb = &pde.HJBProblem{
		Grid:    g,
		Time:    tm,
		DiffH:   0.5 * p.ChSigma * p.ChSigma,
		DiffQ:   0.5 * p.SigmaQ * p.SigmaQ,
		DriftH:  func(_, h float64) float64 { return ou.Drift(0, h) },
		DriftQ:  s.driftLevel,
		Control: s.controlLevel,
		Running: s.utilityLevel,
		Scheme:  scheme,
		Obs:     cfg.Obs,
	}
	s.fpkProb = &pde.FPKProblem{
		Grid:        g,
		Time:        tm,
		DiffH:       0.5 * p.ChSigma * p.ChSigma,
		DiffQ:       0.5 * p.SigmaQ * p.SigmaQ,
		DriftH:      func(_, h float64) float64 { return ou.Drift(0, h) },
		Form:        cfg.FPKForm,
		Scheme:      scheme,
		Renormalize: true,
		Obs:         cfg.Obs,
		DriftQ:      func(n int, b []float64) { s.driftLevel(n, s.xPath[n], b) },
	}
	return s, nil
}

// controlLevel is the HJB Control callback: the Eq. 21 law over the whole
// ∂qV field of a time level.
func (s *Session) controlLevel(_ int, dVdq, x []float64) {
	c := s.control
	for k, d := range dVdq {
		x[k] = c.at(d)
	}
}

// utilityLevel is the HJB Running callback: the Eq. 10 utility at every node
// of level n under that level's mean field. The terms free of x and h are
// evaluated once per q node into the row, with the case probabilities
// combined from the estimator's steps at q and the steps at the level's q̄;
// every node then adds the two costs at its x and h, summing the terms in
// the order of UtilityTerms.Total.
func (s *Session) utilityLevel(n int, x, u []float64) {
	ctx := s.ctxs[n]
	peer := mec.CaseStepsAt(&ctx.P, ctx.QBar)
	row := s.row
	for j := range row {
		row[j] = ctx.QTermsAt(s.est.q[j], s.est.own[j].Cases(peer))
	}
	nq := len(row)
	for i, rate := range s.rate {
		qkRate := s.qkRate[i]
		xi, ui := x[i*nq:(i+1)*nq], u[i*nq:(i+1)*nq]
		for j := range row {
			r := &row[j]
			placement, staleness := ctx.Costs(r, xi[j], rate, qkRate)
			ui[j] = r.Trading + r.Sharing - placement - staleness - r.ShareCost
		}
	}
}

// driftLevel is the q-drift callback of both problems: the Eq. 4 drift of
// the solve's workload at every node of the control field x.
func (s *Session) driftLevel(_ int, x, b []float64) {
	law := s.law
	for k, v := range x {
		b[k] = law.At(v)
	}
}

// Config returns the configuration the session was built for.
func (s *Session) Config() Config { return s.cfg }

// Grid returns the session's state grid.
func (s *Session) Grid() grid.Grid2D { return s.g }

// Time returns the session's time mesh.
func (s *Session) Time() grid.TimeMesh { return s.tm }

// begin resets the session state for a fresh solve of workload w, seeding the
// strategy and density paths from the warm-start equilibrium when given.
func (s *Session) begin(w Workload, warm *Equilibrium) error {
	if err := w.Validate(); err != nil {
		return err
	}
	s.workload = w
	s.law = s.drift.Law(w.Pop, s.drift.XiL(w.Timeliness))
	s.residuals = s.residuals[:0]
	// Density path: before the first FPK solve, hold λ0 constant in time.
	for n := range s.lambdaPath {
		s.lambdaPath[n] = s.lambda0
	}
	// Strategy path: start from no caching, or from the warm-start
	// equilibrium's fixed point.
	for n := range s.xPath {
		for k := range s.xPath[n] {
			s.xPath[n][k] = 0
		}
	}
	if warm != nil {
		if warm.HJB == nil || warm.FPK == nil {
			return fmt.Errorf("core: warm-start equilibrium carries no solver outputs")
		}
		if warm.Grid != s.g || warm.Time != s.tm {
			return fmt.Errorf("core: warm-start grid/time mesh mismatch: %dx%d/%d vs %dx%d/%d",
				warm.Grid.H.N, warm.Grid.Q.N, warm.Time.Steps, s.g.H.N, s.g.Q.N, s.tm.Steps)
		}
		for n := range s.xPath {
			copy(s.xPath[n], warm.HJB.X[n])
			s.lambdaPath[n] = warm.FPK.Lambda[n]
		}
	}
	return nil
}

// iterate runs one damped best-response iteration (Algorithm 2 body):
// estimator snapshots from the current (λ, x) paths, backward HJB under the
// frozen mean field, damped strategy update, forward FPK under the updated
// strategy. It returns the sup-norm strategy residual. The call performs no
// heap allocations when telemetry is disabled. iter is used in diagnostics
// only.
func (s *Session) iterate(iter int) (float64, error) {
	cfg := &s.cfg
	w := s.workload

	// 1. Snapshots from the current (λ, x) paths.
	for n := 0; n <= cfg.Steps; n++ {
		snap, err := s.est.Snapshot(s.tm.At(n), s.lambdaPath[n], s.xPath[n])
		if err != nil {
			return 0, fmt.Errorf("core: snapshot at step %d: %w", n, err)
		}
		s.snaps[n] = snap
		ctx := s.ctxs[n]
		ctx.Price = snap.Price
		ctx.QBar = snap.QBar
		ctx.ShareBenefit = snap.ShareBenefit
		ctx.Requests = w.Requests
		ctx.Pop = w.Pop
		ctx.Timeliness = w.Timeliness
		ctx.ShareEnabled = cfg.ShareEnabled
	}

	// 2. Backward HJB under the frozen mean field.
	var stageStart time.Time
	if s.trace != nil {
		stageStart = time.Now()
	}
	if err := pde.SolveHJBInto(s.ws, s.hjbProb, s.hjb); err != nil {
		return 0, fmt.Errorf("core: HJB solve at iteration %d: %w", iter, err)
	}
	if s.trace != nil {
		s.trace.Observe("hjb_sweep", time.Since(stageStart))
	}

	// 3. Strategy residual and damped update (in place).
	var residual float64
	for n := 0; n <= cfg.Steps; n++ {
		xNew := s.hjb.X[n]
		xOld := s.xPath[n]
		for k := range xOld {
			// A NaN difference sticks, so the divergence guard sees it.
			d := math.Abs(xNew[k] - xOld[k])
			if d > residual || math.IsNaN(d) {
				residual = d
			}
			xOld[k] = (1-cfg.Damping)*xOld[k] + cfg.Damping*xNew[k]
		}
	}

	// 4. Forward FPK under the updated strategy.
	if s.trace != nil {
		stageStart = time.Now()
	}
	if err := pde.SolveFPKInto(s.ws, s.fpkProb, s.lambda0, s.fpk); err != nil {
		return 0, fmt.Errorf("core: FPK solve at iteration %d: %w", iter, err)
	}
	if s.trace != nil {
		s.trace.Observe("fpk_sweep", time.Since(stageStart))
		s.trace.Count("fixed_point_iterations", 1)
	}
	for n := range s.lambdaPath {
		s.lambdaPath[n] = s.fpk.Lambda[n]
	}
	return residual, nil
}

// export copies the session's reusable buffers into a standalone Equilibrium
// (the session is immediately reusable for the next solve). The three paths
// share one backing array, laid out as an archive's bulk, as the session's
// own do.
func (s *Session) export(warm *Equilibrium) *Equilibrium {
	cfg := s.cfg
	cfg.WarmStart = warm
	v, x, lambda := splitPaths(slices.Clone(s.paths), len(s.hjb.V), s.g.Size())
	eq := &Equilibrium{
		Config:   cfg,
		Workload: s.workload,
		Grid:     s.g,
		Time:     s.tm,
		HJB:      &pde.HJBSolution{Grid: s.g, Time: s.tm, V: v, X: x},
		FPK: &pde.FPKSolution{
			Grid:    s.g,
			Time:    s.tm,
			Lambda:  lambda,
			RawMass: append([]float64(nil), s.fpk.RawMass...),
		},
		Snapshots:  append([]Snapshot(nil), s.snaps...),
		Residuals:  append([]float64(nil), s.residuals...),
		Iterations: len(s.residuals),
	}
	return eq
}

// Solve runs the iterative best-response learning scheme (Algorithm 2):
//
//	repeat
//	    1. build mean-field snapshots from the current density path λ and
//	       strategy x (price, q̄, Δq̄, sharing benefit — Eqs. 16–18);
//	    2. solve the backward HJB (Eq. 20) under those snapshots, obtaining
//	       the best-response strategy x* via Theorem 1;
//	    3. stop if sup|x* − x| < Tol;
//	    4. solve the forward FPK (Eq. 15) under (a damped update of) x*,
//	       obtaining the next density path;
//	until converged or ψ = ψ_th.
//
// The fixed point (V*, λ*) of this map is the unique mean-field equilibrium
// (Theorem 2). A nil warm falls back to the session config's WarmStart. On
// non-convergence the partial equilibrium is returned with ErrNotConverged.
func (s *Session) Solve(w Workload, warm *Equilibrium) (*Equilibrium, error) {
	return s.SolveContext(context.Background(), w, warm)
}

// SolveContext is Solve under a context: the best-response loop checks ctx at
// iteration granularity and returns ctx's error (wrapped) as soon as the
// deadline passes or the run is cancelled, leaving the session reusable. It
// additionally guards every iteration against divergence: a NaN/Inf residual
// or one above Config.BlowupResidual abandons the solve with ErrDiverged
// instead of burning the remaining iteration budget on garbage iterates.
func (s *Session) SolveContext(ctx context.Context, w Workload, warm *Equilibrium) (*Equilibrium, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if warm == nil {
		warm = s.cfg.WarmStart
	}
	// Request-scoped stage attribution: when the caller's context carries a
	// ReqTrace (the serving tier's per-request correlation), the HJB/FPK
	// sweep times and fixed-point iteration count of this solve land in it.
	s.trace = obs.ReqTraceFrom(ctx)
	defer func() { s.trace = nil }()
	if err := s.begin(w, warm); err != nil {
		return nil, err
	}
	blowup := s.cfg.BlowupResidual
	if blowup == 0 {
		blowup = defaultBlowupResidual
	}

	rec := obs.OrNop(s.cfg.Obs)
	solveSpan := rec.Start("core.solve")
	rec.Add("engine.session.solves", 1)
	if s.solves > 0 {
		// Workspace reuse: this solve runs entirely on buffers allocated for
		// an earlier one.
		rec.Add("engine.session.reused", 1)
	}

	converged := false
	for iter := 1; iter <= s.cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			s.solves++
			solveSpan.End(slog.Int("iterations", iter-1), slog.String("stop_reason", "canceled"))
			return nil, fmt.Errorf("core: solve canceled at iteration %d: %w", iter, err)
		}
		residual, err := s.iterate(iter)
		if err != nil {
			s.solves++
			solveSpan.End(
				slog.Int("iterations", iter-1),
				slog.String("stop_reason", "error"),
				slog.String("error", err.Error()))
			return nil, err
		}
		if math.IsNaN(residual) || math.IsInf(residual, 0) || residual > blowup {
			s.solves++
			rec.Add("resilience.nonfinite", 1)
			rec.Add("core.solver.diverged", 1)
			solveSpan.End(
				slog.Int("iterations", iter),
				slog.Float64("residual", residual),
				slog.String("stop_reason", "diverged"))
			return nil, fmt.Errorf("%w: residual %g at iteration %d (blow-up threshold %g)",
				ErrDiverged, residual, iter, blowup)
		}
		s.residuals = append(s.residuals, residual)
		converged = residual < s.cfg.Tol
		rec.Add("core.solver.iterations", 1)
		rec.Observe("core.solver.residual", residual)
		if rec.Enabled() {
			rec.Event("core.iteration",
				slog.Int("iteration", iter),
				slog.Float64("residual", residual),
				slog.Float64("tol", s.cfg.Tol),
				slog.Float64("damping", s.cfg.Damping),
				slog.Bool("converged", converged))
		}
		if converged {
			break
		}
	}

	eq := s.export(warm)
	eq.Converged = converged
	s.solves++

	stopReason := "tolerance"
	rec.Add("core.solver.solves", 1)
	// One equilibrium solve serves one content for one optimisation epoch
	// (Algorithm 1 line 9), so this mirrors sim's per-run "sim.epochs".
	rec.Add("core.solver.content_epochs", 1)
	if eq.Converged {
		rec.Add("core.solver.converged", 1)
	} else {
		stopReason = "max_iters"
		rec.Add("core.solver.nonconverged", 1)
	}
	rec.Gauge("core.solver.last_iterations", float64(eq.Iterations))
	rec.Gauge("core.solver.last_residual", eq.Residuals[len(eq.Residuals)-1])
	solveSpan.End(
		slog.Int("iterations", eq.Iterations),
		slog.Bool("converged", eq.Converged),
		slog.String("stop_reason", stopReason),
		slog.Float64("final_residual", eq.Residuals[len(eq.Residuals)-1]),
		slog.Bool("warm_start", warm != nil))

	if !eq.Converged {
		return eq, fmt.Errorf("%w after %d iterations (residual %.3g > tol %.3g)",
			ErrNotConverged, eq.Iterations, eq.Residuals[len(eq.Residuals)-1], s.cfg.Tol)
	}
	return eq, nil
}

// defaultBlowupResidual bounds the strategy residual when Config leaves
// BlowupResidual at zero. The caching rate is confined to [0,1], so a residual
// beyond this is unambiguously a numerical blow-up.
const defaultBlowupResidual = 1e8

// Solve runs one equilibrium computation with a throwaway session. It suits
// one-off solves (experiments, tests); sustained callers (the policy layer,
// epoch loops) construct a Session once and reuse it.
func Solve(cfg Config, w Workload) (*Equilibrium, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return s.Solve(w, nil)
}
