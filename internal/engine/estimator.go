package engine

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mec"
	"repro/internal/numerics"
)

// Snapshot captures every mean-field quantity the generic EDP needs at one
// time node. It is what the mean-field estimator "publicises" instead of the
// individual states of the other M−1 EDPs.
type Snapshot struct {
	T float64

	// MeanControl is E_λ[x*] = ∫∫ λ(S) x*(S) dS, the population-average
	// caching rate entering the dynamic price (Eq. 17).
	MeanControl float64
	// Price is the limiting trading price p(t) of Eq. (17).
	Price float64
	// QBar is q̄_{−,k}(t) = ∫∫ q·λ(S) dS, the mean remaining space of the
	// peer population (Eq. 18).
	QBar float64
	// SharerFrac is M_k(t)/M: the fraction of EDPs whose remaining space is
	// below α·Qk, i.e. that have cached enough to qualify as sharers.
	SharerFrac float64
	// Case3Frac is M'_k(t)/M: the fraction of EDPs that fall into Case 3
	// (neither themselves nor the average peer has cached enough).
	Case3Frac float64
	// DeltaQ is the average transfer size Δq̄(t) between sharing partners.
	DeltaQ float64
	// ShareBenefit is the average sharing benefit Φ̄²(t) accruing to one
	// qualified sharer.
	ShareBenefit float64
}

// Estimator computes mean-field snapshots from a density λ and a control
// field x on a fixed state grid. Between calls it holds only what the grid
// and the parameters fix, the q node coordinates and the q-only smooth steps
// of the case probabilities, so it never changes after construction and the
// fixed-point iteration of Algorithm 2 still rebuilds every snapshot from
// the freshest λ and x* each round.
type Estimator struct {
	P mec.Params
	G grid.Grid2D

	q   []float64       // q node coordinates
	own []mec.CaseSteps // the case probabilities' smooth steps at each q node
}

// NewEstimator validates the parameters and returns an estimator on g.
func NewEstimator(p mec.Params, g grid.Grid2D) (*Estimator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{P: p, G: g, q: g.Q.Nodes(), own: make([]mec.CaseSteps, g.Q.N)}
	for j, q := range e.q {
		e.own[j] = mec.CaseStepsAt(&e.P, q)
	}
	return e, nil
}

// Snapshot computes every estimator quantity at time t from the density
// lambda and the control field x (both flattened over the grid). All five
// trapezoid moments sharing the density weights are fused into two passes
// with separate accumulators (the Case-3 pass needs the finished q̄), so the
// call performs no heap allocations and one traversal less than computing
// each moment independently — while accumulating every moment in the exact
// same node order, keeping the results bit-identical to the unfused form.
func (e *Estimator) Snapshot(t float64, lambda, x []float64) (Snapshot, error) {
	g := e.G
	if len(lambda) != g.Size() || len(x) != g.Size() {
		return Snapshot{}, fmt.Errorf("core: Snapshot: lambda %d, x %d, grid %d", len(lambda), len(x), g.Size())
	}
	// Normalising constant: the solvers keep ∫∫λ = 1, but dividing by the
	// actual quadrature mass makes the estimator robust to round-off and to
	// callers handing in unnormalised histograms.
	massV, err := numerics.Integral2D(g, lambda)
	if err != nil {
		return Snapshot{}, err
	}
	if massV <= 0 {
		return Snapshot{}, fmt.Errorf("core: Snapshot: density mass %g is not positive", massV)
	}

	aq := e.P.AlphaQ()
	nh, nq := g.H.N, g.Q.N
	cell := g.CellArea()

	var meanXSum, qBarSum, sharerSum, lowSum, highSum float64
	for i := 0; i < nh; i++ {
		wi := 1.0
		if i == 0 || i == nh-1 {
			wi = 0.5
		}
		row := i * nq
		for j := 0; j < nq; j++ {
			wj := 1.0
			if j == 0 || j == nq-1 {
				wj = 0.5
			}
			q := e.q[j]
			lam := lambda[row+j]
			w := wi * wj
			meanXSum += w * lam * x[row+j]
			qBarSum += w * lam * q
			if q <= aq {
				sharerSum += w * lam
				lowSum += w * lam * q
			} else {
				highSum += w * lam * q
			}
		}
	}
	meanX := meanXSum * cell / massV
	qBar := qBarSum * cell / massV
	sharerFrac := sharerSum * cell / massV

	// Case-3 fraction: smoothed probability that an EDP misses and the
	// average peer misses too, integrated over the population. A second pass
	// because the case probabilities depend on the finished q̄: the steps at
	// q̄ are evaluated once here, those at each q node once per estimator.
	peer := mec.CaseStepsAt(&e.P, qBar)
	var case3Sum float64
	for i := 0; i < nh; i++ {
		wi := 1.0
		if i == 0 || i == nh-1 {
			wi = 0.5
		}
		row := i * nq
		for j := 0; j < nq; j++ {
			wj := 1.0
			if j == 0 || j == nq-1 {
				wj = 0.5
			}
			case3Sum += wi * wj * lambda[row+j] * e.own[j].Cases(peer).P3
		}
	}
	case3Frac := case3Sum * cell / massV

	// Average transfer size Δq̄: |E[q·1{q≤αQ}] − E[q·1{q>αQ}]|.
	low := lowSum * cell
	high := highSum * cell
	deltaQ := math.Abs(low-high) / massV

	s := Snapshot{
		T:           t,
		MeanControl: meanX,
		Price:       mec.PriceMeanField(e.P, meanX),
		QBar:        qBar,
		SharerFrac:  sharerFrac,
		Case3Frac:   case3Frac,
		DeltaQ:      deltaQ,
	}
	s.ShareBenefit = e.shareBenefit(s)
	return s, nil
}

// shareBenefit evaluates Φ̄²(t) = p̄k · Δq̄ · ((M − M')/M_k − 1), clamped to
// be non-negative (an EDP can decline to share rather than pay to do so) and
// guarded against a (near-)empty sharer population: when fewer than 0.1% of
// EDPs qualify as sharers, the matching probability is negligible and the
// ratio (M−M')/M_k would explode, so the benefit is reported as zero.
func (e *Estimator) shareBenefit(s Snapshot) float64 {
	if s.SharerFrac <= 1e-3 {
		return 0
	}
	ratio := (1 - s.Case3Frac) / s.SharerFrac
	b := e.P.SharePrice * s.DeltaQ * (ratio - 1)
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return 0
	}
	return b
}

// OptimalControl is the closed-form maximiser of Theorem 1 (Eq. 21):
//
//	x* = [ −( w4/(2w5) + η2·Qk/(2·Hc·w5) + Qk·w1·∂qV/(2w5) ) ]₀¹
//
// It depends on the model constants and the local estimate of ∂qV only.
func OptimalControl(p mec.Params, dVdq float64) float64 {
	return newControlLaw(&p).at(dVdq)
}

// controlLaw is Eq. 21 with its ∂qV-free constants evaluated once per
// parameter set: a session builds it at construction and applies it at
// every node of every HJB sweep.
type controlLaw struct {
	offset float64 // w4/(2w5) + η2·Qk/(2·Hc·w5)
	slope  float64 // Qk·w1
	den    float64 // 2w5
}

// newControlLaw is kept small enough that OptimalControl and its core and
// root wrappers stay within the inliner's budget, and it reads p in place:
// a wrapper that is not inlined, or an inlined by-value parameter, copies
// Params on every call.
func newControlLaw(p *mec.Params) controlLaw {
	return controlLaw{p.W4/(2*p.W5) + p.Eta2*p.Qk/(2*p.HubRate*p.W5), p.Qk * p.W1, 2 * p.W5}
}

// at evaluates x* for the estimate dVdq of ∂qV.
func (c controlLaw) at(dVdq float64) float64 {
	return numerics.Clamp01(-(c.offset + c.slope*dVdq/c.den))
}
