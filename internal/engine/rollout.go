package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mec"
	"repro/internal/numerics"
	"repro/internal/sde"
)

// Rollout is the trajectory of a representative (generic) EDP playing the
// equilibrium strategy against the mean field. Several of the paper's figures
// (9, 10, 11) plot exactly this object: the evolution of one EDP's remaining
// space, instantaneous and accumulated utility, and the income/cost split.
type Rollout struct {
	Times []float64
	H, Q  []float64 // state trajectory
	X     []float64 // applied caching rate x*(t, h, q)

	Utility   []float64 // instantaneous U(t)
	Trading   []float64 // Φ¹(t)
	Sharing   []float64 // Φ²(t)
	Placement []float64 // C¹(t)
	Staleness []float64 // C²(t)
	ShareCost []float64 // C³(t)

	CumUtility []float64 // ∫₀ᵗ U dt'
	CumTrading []float64
}

// Final returns the accumulated utility and trading income over the horizon.
func (r *Rollout) Final() (utility, trading float64) {
	n := len(r.CumUtility)
	if n == 0 {
		return 0, 0
	}
	return r.CumUtility[n-1], r.CumTrading[n-1]
}

// SimulateRollout integrates one EDP's state SDEs under the equilibrium
// policy with the Euler–Maruyama scheme (reflecting at the grid boundaries,
// matching the FPK's zero-flux condition) and evaluates the utility
// decomposition against the equilibrium's mean-field snapshots. seed makes
// the Brownian path reproducible; h0, q0 set the initial state.
func (eq *Equilibrium) SimulateRollout(h0, q0 float64, seed int64) (*Rollout, error) {
	if eq.HJB == nil {
		return nil, errors.New("core: equilibrium carries no HJB solution")
	}
	control, err := eq.HJB.ControlField()
	if err != nil {
		return nil, err
	}
	p := eq.Config.Params
	if !eq.Grid.H.Contains(h0) {
		return nil, fmt.Errorf("core: initial fading %g outside [%g, %g]", h0, eq.Grid.H.Min, eq.Grid.H.Max)
	}
	if !eq.Grid.Q.Contains(q0) {
		return nil, fmt.Errorf("core: initial remaining space %g outside [%g, %g]", q0, eq.Grid.Q.Min, eq.Grid.Q.Max)
	}
	channel, err := mec.NewChannelModel(p)
	if err != nil {
		return nil, err
	}
	ou := channel.OU()
	drift := sde.CacheDrift{Qk: p.Qk, W1: p.W1, W2: p.W2, W3: p.W3, Xi: p.Xi, SigmaQ: p.SigmaQ}
	rng := sde.NewRNG(seed)

	steps := eq.Time.Steps
	dt := eq.Time.Dt()
	r := &Rollout{
		Times:      make([]float64, steps+1),
		H:          make([]float64, steps+1),
		Q:          make([]float64, steps+1),
		X:          make([]float64, steps+1),
		Utility:    make([]float64, steps+1),
		Trading:    make([]float64, steps+1),
		Sharing:    make([]float64, steps+1),
		Placement:  make([]float64, steps+1),
		Staleness:  make([]float64, steps+1),
		ShareCost:  make([]float64, steps+1),
		CumUtility: make([]float64, steps+1),
		CumTrading: make([]float64, steps+1),
	}

	h, q := h0, q0
	for n := 0; n <= steps; n++ {
		t := eq.Time.At(n)
		r.Times[n] = t
		r.H[n] = h
		r.Q[n] = q

		x := control.At(t, h, q)
		r.X[n] = x

		snap := eq.SnapshotAt(t)
		ctx, err := mec.NewUtilityContext(p, channel)
		if err != nil {
			return nil, err
		}
		ctx.Price = snap.Price
		ctx.QBar = snap.QBar
		ctx.ShareBenefit = snap.ShareBenefit
		ctx.Requests = eq.Workload.Requests
		ctx.Pop = eq.Workload.Pop
		ctx.Timeliness = eq.Workload.Timeliness
		ctx.ShareEnabled = eq.Config.ShareEnabled

		terms := ctx.Terms(x, h, q)
		r.Utility[n] = terms.Total()
		r.Trading[n] = terms.Trading
		r.Sharing[n] = terms.Sharing
		r.Placement[n] = terms.Placement
		r.Staleness[n] = terms.Staleness
		r.ShareCost[n] = terms.ShareCost
		if n > 0 {
			r.CumUtility[n] = r.CumUtility[n-1] + r.Utility[n]*dt
			r.CumTrading[n] = r.CumTrading[n-1] + r.Trading[n]*dt
		}

		if n == steps {
			break
		}
		// Euler–Maruyama step with reflection into the modelled ranges.
		sq := math.Sqrt(dt)
		h += ou.Drift(t, h)*dt + ou.Diffusion(t, h)*sq*rng.NormFloat64()
		h = sde.ReflectInto(h, eq.Grid.H.Min, eq.Grid.H.Max)
		q += drift.Rate(x, eq.Workload.Pop, eq.Workload.Timeliness)*dt + drift.SigmaQ*sq*rng.NormFloat64()
		q = sde.ReflectInto(q, eq.Grid.Q.Min, eq.Grid.Q.Max)
	}
	return r, nil
}

// DeviationUtility evaluates the accumulated utility of a unilateral
// deviation: the EDP plays the constant caching rate xConst instead of the
// equilibrium strategy, while the mean field stays at equilibrium. Used by
// the Nash-equilibrium property test: no constant deviation should beat the
// equilibrium strategy by more than discretisation noise.
func (eq *Equilibrium) DeviationUtility(h0, q0, xConst float64, seed int64) (float64, error) {
	if eq.HJB == nil {
		return 0, errors.New("core: equilibrium carries no HJB solution")
	}
	p := eq.Config.Params
	xConst = numerics.Clamp01(xConst)
	channel, err := mec.NewChannelModel(p)
	if err != nil {
		return 0, err
	}
	ou := channel.OU()
	drift := sde.CacheDrift{Qk: p.Qk, W1: p.W1, W2: p.W2, W3: p.W3, Xi: p.Xi, SigmaQ: p.SigmaQ}
	rng := sde.NewRNG(seed)

	steps := eq.Time.Steps
	dt := eq.Time.Dt()
	h, q := h0, q0
	var cum float64
	for n := 0; n < steps; n++ {
		t := eq.Time.At(n)
		snap := eq.SnapshotAt(t)
		ctx, err := mec.NewUtilityContext(p, channel)
		if err != nil {
			return 0, err
		}
		ctx.Price = snap.Price
		ctx.QBar = snap.QBar
		ctx.ShareBenefit = snap.ShareBenefit
		ctx.Requests = eq.Workload.Requests
		ctx.Pop = eq.Workload.Pop
		ctx.Timeliness = eq.Workload.Timeliness
		ctx.ShareEnabled = eq.Config.ShareEnabled
		cum += ctx.Utility(xConst, h, q) * dt

		sq := math.Sqrt(dt)
		h += ou.Drift(t, h)*dt + ou.Diffusion(t, h)*sq*rng.NormFloat64()
		h = sde.ReflectInto(h, eq.Grid.H.Min, eq.Grid.H.Max)
		q += drift.Rate(xConst, eq.Workload.Pop, eq.Workload.Timeliness)*dt + drift.SigmaQ*sq*rng.NormFloat64()
		q = sde.ReflectInto(q, eq.Grid.Q.Min, eq.Grid.Q.Max)
	}
	return cum, nil
}
