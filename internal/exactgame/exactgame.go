// Package exactgame implements the finite-M stochastic differential game
// that MFG-CP approximates — the "original game" on the left of the paper's
// Fig. 2. Every EDP i keeps its own state density λ_i and best-responds to
// the *actual* aggregates of the other M−1 players (price via Eq. 5, peer
// cache level, sharing terms) instead of a mean field, so one best-response
// round costs M coupled HJB–FPK solves: the O(M·K·ψ_th) complexity the paper
// contrasts with MFG-CP's O(K·ψ_th).
//
// The package serves two purposes: it validates the mean-field approximation
// (for symmetric populations the exact-game strategies converge to the MFG
// strategy as M grows — see the tests), and it provides the complexity
// baseline for the scalability claims of Table II.
package exactgame

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/mec"
	"repro/internal/numerics"
	"repro/internal/pde"
)

// AgentInit is one EDP's initial remaining-space distribution (Gaussian over
// q; the channel initialisation is the shared OU stationary law).
type AgentInit struct {
	MeanQ, StdQ float64
}

// SymmetricInits returns m identical initial distributions drawn from the
// Section-V population law (mean InitMeanFrac·Qk, sd InitStdFrac·Qk): the
// symmetric population whose exact-game strategies converge to the MFG
// strategy as m grows. The verification layer uses it for the finite-M
// differential check.
func SymmetricInits(p mec.Params, m int) []AgentInit {
	inits := make([]AgentInit, m)
	for i := range inits {
		inits[i] = AgentInit{MeanQ: p.InitMeanFrac * p.Qk, StdQ: p.InitStdFrac * p.Qk}
	}
	return inits
}

// Config controls one exact-game solve.
type Config struct {
	Params mec.Params

	NH, NQ, Steps int

	// MaxRounds bounds the sequential best-response rounds over the agents;
	// Tol is the convergence threshold on the strategy change.
	MaxRounds int
	Tol       float64

	// Share toggles paid peer sharing (as in the MFG-CP vs MFG variants).
	Share bool
}

// DefaultConfig returns moderate settings for an M-player solve.
func DefaultConfig(p mec.Params) Config {
	return Config{
		Params:    p,
		NH:        7,
		NQ:        31,
		Steps:     48,
		MaxRounds: 25,
		Tol:       2e-3,
		Share:     true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.NH < 3 || c.NQ < 3 {
		return fmt.Errorf("exactgame: grid must be at least 3×3, got %d×%d", c.NH, c.NQ)
	}
	if c.Steps < 2 {
		return fmt.Errorf("exactgame: need at least 2 time steps, got %d", c.Steps)
	}
	if c.MaxRounds < 1 {
		return fmt.Errorf("exactgame: MaxRounds must be ≥ 1, got %d", c.MaxRounds)
	}
	if !(c.Tol > 0) {
		return fmt.Errorf("exactgame: Tol must be positive, got %g", c.Tol)
	}
	return nil
}

// Agent is one player's solved state.
type Agent struct {
	Init AgentInit

	HJB     *pde.HJBSolution
	Density [][]float64 // own density path, one field per time node

	// Per-time-node own aggregates E_i[x](t), E_i[q](t), plus the sharing
	// statistics of the own density (fraction below αQk etc.).
	MeanX      []float64
	MeanQ      []float64
	SharerFrac []float64 // sharp fraction with q ≤ αQk
	MissFrac   []float64 // smooth own-miss weight ∫ f(q−αQk) λ
	LowQ       []float64 // E[q·1{q≤αQk}]
	HighQ      []float64 // E[q·1{q>αQk}]
}

// Solution is the outcome of the finite-M best-response iteration.
type Solution struct {
	Config Config
	Grid   grid.Grid2D
	Time   grid.TimeMesh

	Agents    []*Agent
	Rounds    int
	Converged bool
	Residuals []float64 // worst per-agent strategy change per round

	// Solves counts the total HJB+FPK pairs executed — the empirical
	// complexity (≈ M × rounds, versus rounds for the MFG).
	Solves int
}

// ErrNotConverged is wrapped when the round limit is hit.
var ErrNotConverged = errors.New("exactgame: best-response rounds did not converge")

// Solve runs sequential best-response over the M agents given their initial
// distributions. Agents see the exact finite-M averages of the other players'
// current strategies and states.
func Solve(cfg Config, w engine.Workload, inits []AgentInit) (*Solution, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	m := len(inits)
	if m < 2 {
		return nil, fmt.Errorf("exactgame: need at least 2 agents, got %d", m)
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
	channel, err := mec.NewChannelModel(p)
	if err != nil {
		return nil, err
	}
	ou := channel.OU()
	sdH := math.Sqrt(ou.StationaryVar())
	if sdH < 1e-3 {
		sdH = 1e-3
	}

	sol := &Solution{Config: cfg, Grid: g, Time: tm, Agents: make([]*Agent, m)}
	xPaths := make([][][]float64, m) // [agent][time][node]
	for i, init := range inits {
		if !(init.StdQ > 0) {
			return nil, fmt.Errorf("exactgame: agent %d: StdQ must be positive, got %g", i, init.StdQ)
		}
		lambda0, err := pde.GaussianDensity(g, p.ChMean, sdH, init.MeanQ, init.StdQ)
		if err != nil {
			return nil, fmt.Errorf("exactgame: agent %d: %w", i, err)
		}
		a := &Agent{Init: init, Density: make([][]float64, cfg.Steps+1)}
		for n := range a.Density {
			a.Density[n] = lambda0
		}
		a.MeanX = make([]float64, cfg.Steps+1)
		a.MeanQ = make([]float64, cfg.Steps+1)
		a.SharerFrac = make([]float64, cfg.Steps+1)
		a.MissFrac = make([]float64, cfg.Steps+1)
		a.LowQ = make([]float64, cfg.Steps+1)
		a.HighQ = make([]float64, cfg.Steps+1)
		sol.Agents[i] = a
		xPaths[i] = make([][]float64, cfg.Steps+1)
		for n := range xPaths[i] {
			xPaths[i][n] = g.NewField()
		}
		if err := refreshAggregates(p, g, a, xPaths[i]); err != nil {
			return nil, err
		}
	}

	for round := 1; round <= cfg.MaxRounds; round++ {
		var worst float64
		for i := 0; i < m; i++ {
			// Exact finite-M aggregates of the other agents at each node.
			ctxs := make([]*mec.UtilityContext, cfg.Steps+1)
			for n := 0; n <= cfg.Steps; n++ {
				var othersX, othersQ, sharer, miss, lowQ, highQ float64
				for j := 0; j < m; j++ {
					if j == i {
						continue
					}
					othersX += sol.Agents[j].MeanX[n]
					othersQ += sol.Agents[j].MeanQ[n]
					sharer += sol.Agents[j].SharerFrac[n]
					miss += sol.Agents[j].MissFrac[n]
					lowQ += sol.Agents[j].LowQ[n]
					highQ += sol.Agents[j].HighQ[n]
				}
				den := float64(m - 1)
				othersX /= den
				othersQ /= den
				sharer /= den
				miss /= den
				lowQ /= den
				highQ /= den

				price := p.PHat - p.Eta1*p.Qk*othersX // Eq. (5) without the own-supply term
				if price < 0 {
					price = 0
				}
				ctx, err := mec.NewUtilityContext(p, channel)
				if err != nil {
					return nil, err
				}
				ctx.Price = price
				ctx.QBar = othersQ
				// Sharing benefit with the estimator's exact functional form
				// (Section IV-B), evaluated on the finite-M mixture: Δq̄ from
				// the partial means, case-3 weight from the smooth miss
				// fraction and the peer-level threshold.
				deltaQ := math.Abs(lowQ - highQ)
				case3 := numerics.SmoothStep(p.SmoothL, othersQ-p.AlphaQ()) * miss
				ctx.ShareBenefit = shareBenefit(p, deltaQ, case3, sharer)
				ctx.Requests = w.Requests
				ctx.Pop = w.Pop
				ctx.Timeliness = w.Timeliness
				ctx.ShareEnabled = cfg.Share
				ctxs[n] = ctx
			}

			// Best response: backward HJB for agent i. The q drift depends on
			// the workload only, which every time level shares.
			prob := &pde.HJBProblem{
				Grid:   g,
				Time:   tm,
				DiffH:  0.5 * p.ChSigma * p.ChSigma,
				DiffQ:  0.5 * p.SigmaQ * p.SigmaQ,
				DriftH: func(_, h float64) float64 { return ou.Drift(0, h) },
				DriftQ: func(_ int, x, b []float64) {
					for k, v := range x {
						b[k] = ctxs[0].QDrift(v)
					}
				},
				Control: func(_ int, dVdq, x []float64) {
					for k, dV := range dVdq {
						x[k] = engine.OptimalControl(p, dV)
					}
				},
				Running: func(n int, x, u []float64) {
					for k := range u {
						i, j := g.Coords(k)
						u[k] = ctxs[n].Utility(x[k], g.H.At(i), g.Q.At(j))
					}
				},
			}
			hjb, err := pde.SolveHJB(prob)
			if err != nil {
				return nil, fmt.Errorf("exactgame: round %d agent %d HJB: %w", round, i, err)
			}
			for n := 0; n <= cfg.Steps; n++ {
				for k := range hjb.X[n] {
					// A NaN difference sticks, so a NaN round never converges.
					if d := math.Abs(hjb.X[n][k] - xPaths[i][n][k]); d > worst || math.IsNaN(d) {
						worst = d
					}
				}
			}
			xPaths[i] = hjb.X
			sol.Agents[i].HJB = hjb

			// Own density transport under the new strategy.
			fprob := &pde.FPKProblem{
				Grid:        g,
				Time:        tm,
				DiffH:       0.5 * p.ChSigma * p.ChSigma,
				DiffQ:       0.5 * p.SigmaQ * p.SigmaQ,
				DriftH:      func(_, h float64) float64 { return ou.Drift(0, h) },
				Form:        pde.Conservative,
				Renormalize: true,
				DriftQ: func(n int, b []float64) {
					for k, x := range hjb.X[n] {
						b[k] = ctxs[n].QDrift(x)
					}
				},
			}
			fpk, err := pde.SolveFPK(fprob, sol.Agents[i].Density[0])
			if err != nil {
				return nil, fmt.Errorf("exactgame: round %d agent %d FPK: %w", round, i, err)
			}
			sol.Agents[i].Density = fpk.Lambda
			sol.Solves++
			if err := refreshAggregates(p, g, sol.Agents[i], xPaths[i]); err != nil {
				return nil, err
			}
		}
		sol.Rounds = round
		sol.Residuals = append(sol.Residuals, worst)
		if worst < cfg.Tol {
			sol.Converged = true
			break
		}
	}
	if !sol.Converged {
		return sol, fmt.Errorf("%w after %d rounds (residual %.3g > tol %.3g)",
			ErrNotConverged, sol.Rounds, sol.Residuals[len(sol.Residuals)-1], cfg.Tol)
	}
	return sol, nil
}

// refreshAggregates recomputes an agent's per-node aggregates from its
// density path and strategy path.
func refreshAggregates(p mec.Params, g grid.Grid2D, a *Agent, xPath [][]float64) error {
	aq := p.AlphaQ()
	for n := range a.Density {
		lambda := a.Density[n]
		mass, err := numerics.Integral2D(g, lambda)
		if err != nil {
			return err
		}
		if mass <= 0 {
			return fmt.Errorf("exactgame: density mass vanished at node %d", n)
		}
		meanX, err := numerics.WeightedIntegral2D(g, lambda, func(i, j int, _, _ float64) float64 {
			return xPath[n][g.Idx(i, j)]
		})
		if err != nil {
			return err
		}
		meanQ, err := numerics.WeightedIntegral2D(g, lambda, func(_, _ int, _, q float64) float64 { return q })
		if err != nil {
			return err
		}
		sharer, err := numerics.WeightedIntegral2D(g, lambda, func(_, _ int, _, q float64) float64 {
			if q <= aq {
				return 1
			}
			return 0
		})
		if err != nil {
			return err
		}
		miss, err := numerics.WeightedIntegral2D(g, lambda, func(_, _ int, _, q float64) float64 {
			return numerics.SmoothStep(p.SmoothL, q-aq)
		})
		if err != nil {
			return err
		}
		lowQ, err := numerics.WeightedIntegral2D(g, lambda, func(_, _ int, _, q float64) float64 {
			if q <= aq {
				return q
			}
			return 0
		})
		if err != nil {
			return err
		}
		highQ, err := numerics.WeightedIntegral2D(g, lambda, func(_, _ int, _, q float64) float64 {
			if q > aq {
				return q
			}
			return 0
		})
		if err != nil {
			return err
		}
		a.MeanX[n] = meanX / mass
		a.MeanQ[n] = meanQ / mass
		a.SharerFrac[n] = sharer / mass
		a.MissFrac[n] = miss / mass
		a.LowQ[n] = lowQ / mass
		a.HighQ[n] = highQ / mass
	}
	return nil
}

// shareBenefit is the estimator's Φ̄² = p̄·Δq̄·((1−case3)/sharer − 1) on the
// finite-M mixture aggregates, guarded for an empty sharer population.
func shareBenefit(p mec.Params, deltaQ, case3, sharerFrac float64) float64 {
	if sharerFrac <= 1e-3 {
		return 0
	}
	b := p.SharePrice * deltaQ * ((1-case3)/sharerFrac - 1)
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return 0
	}
	return b
}
