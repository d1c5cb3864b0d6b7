package policy

import (
	"math"

	"repro/internal/mec"
	"repro/internal/numerics"
	"repro/internal/sde"
)

// RR is the Random Replacement baseline: every EDP draws an independent
// uniform caching rate for every content at the start of each epoch. The
// strategy determination is therefore O(M·K) — each of the M EDPs runs its
// own random draw, which is exactly the per-player cost MFG-CP avoids
// (Table II).
type RR struct {
	rates [][]float64 // [edp][content]
	k     int
}

// NewRR returns the Random Replacement baseline.
func NewRR() *RR { return &RR{} }

// Name implements Policy.
func (p *RR) Name() string { return "RR" }

// SharingEnabled implements Policy.
func (p *RR) SharingEnabled() bool { return true }

// Prepare draws the per-EDP random strategies.
func (p *RR) Prepare(ctx *EpochContext) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	p.k = ctx.Params.K
	p.rates = make([][]float64, ctx.Params.M)
	for i := 0; i < ctx.Params.M; i++ {
		rng := sde.NewChildRNG(ctx.Seed, i*7919+ctx.Epoch)
		row := make([]float64, p.k)
		for k := range row {
			if ctx.Workloads[k].Requests > 0 {
				row[k] = rng.Float64()
			}
		}
		p.rates[i] = row
	}
	return nil
}

// Rate implements Policy.
func (p *RR) Rate(edp, k int, _, _, _ float64) (float64, error) {
	if err := checkContent(k, p.k); err != nil {
		return 0, err
	}
	if edp < 0 || edp >= len(p.rates) {
		// EDPs beyond the prepared population reuse the first strategy row;
		// this only happens in deliberately mis-sized test setups.
		edp = 0
	}
	return p.rates[edp][k], nil
}

// MPC is the Most Popular Caching baseline (after FGPC [18]): each EDP ranks
// contents by current popularity and caches the top fraction at full rate
// until the whole content is stored (a small hysteresis of 2% of Qk stops
// the rate from fighting the reflecting boundary at q = 0), ignoring prices,
// peers and delay. Ranking runs per EDP, so strategy determination is
// O(M·K log K).
type MPC struct {
	// TopFraction of the catalogue cached at x=1 (default 0.25).
	TopFraction float64

	hot  map[int]bool
	k    int
	minQ float64
}

// NewMPC returns the Most Popular Caching baseline.
func NewMPC() *MPC { return &MPC{TopFraction: 0.25} }

// Name implements Policy.
func (p *MPC) Name() string { return "MPC" }

// SharingEnabled implements Policy.
func (p *MPC) SharingEnabled() bool { return true }

// Prepare computes the hot set. All EDPs see the same popularity, so the
// resulting sets coincide — exactly the herd behaviour the paper's
// introduction criticises — but the ranking is still executed once per EDP
// to model the distributed cost.
func (p *MPC) Prepare(ctx *EpochContext) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	p.k = ctx.Params.K
	p.minQ = 0.02 * ctx.Params.Qk
	n := int(math.Ceil(p.TopFraction * float64(p.k)))
	if n < 1 {
		n = 1
	}
	var hot []int
	for i := 0; i < ctx.Params.M; i++ {
		hot = ctx.Catalog.HotSet(n) // each EDP ranks on its own
	}
	p.hot = make(map[int]bool, len(hot))
	for _, k := range hot {
		p.hot[k] = true
	}
	return nil
}

// Rate implements Policy: full-rate caching for hot contents until the whole
// content is stored, nothing otherwise.
func (p *MPC) Rate(_, k int, _, _, q float64) (float64, error) {
	if err := checkContent(k, p.k); err != nil {
		return 0, err
	}
	if p.hot[k] && q > p.minQ {
		return 1, nil
	}
	return 0, nil
}

// UDCS is the Ultra-Dense Caching Strategy baseline (after Kim et al. [28]):
// a long-run average-cost minimiser that accounts for content overlap among
// dense neighbouring EDPs and wireless interference, but ignores pricing and
// paid sharing. Following the cited construction, each EDP caches a content
// in proportion to the delay pressure it would otherwise accumulate,
// discounted by the expected overlap with its neighbours:
//
//	x_k(t, q) = [ (Qk·w1·η2·|I_k|·P3(q)·(T−t)/(2·Hc) − w4 − η2·Qk/Hc)
//	              / (2·w5·(1 + ov_k)) ]₀¹,   ov_k = n_eff·Π_k·K/2
//
// i.e. the marginal future staleness saving of one unit of caching versus its
// placement cost, with popular contents discounted because n_eff interfering
// neighbours are expected to cache them too.
type UDCS struct {
	// LongRun is the effective optimisation horizon in epochs: UDCS
	// minimises the long-run average cost, so its delay-saving estimate
	// extends beyond the current epoch (default 4).
	LongRun float64

	params  mec.Params
	work    []workSlice
	horizon float64
	k       int
}

type workSlice struct {
	requests float64
	overlap  float64
}

// NewUDCS returns the UDCS baseline.
func NewUDCS() *UDCS { return &UDCS{LongRun: 4} }

// Name implements Policy.
func (p *UDCS) Name() string { return "UDCS" }

// SharingEnabled implements Policy. UDCS ignores the sharing market.
func (p *UDCS) SharingEnabled() bool { return false }

// Prepare caches the per-content demand and overlap factors.
func (p *UDCS) Prepare(ctx *EpochContext) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	p.params = ctx.Params
	p.horizon = ctx.Params.Horizon
	p.k = ctx.Params.K
	p.work = make([]workSlice, p.k)
	for k := 0; k < p.k; k++ {
		p.work[k] = workSlice{
			requests: ctx.Workloads[k].Requests,
			overlap:  float64(ctx.Params.Interfer) * ctx.Workloads[k].Pop * float64(ctx.Params.K) / 2,
		}
	}
	return nil
}

// Rate implements Policy.
func (p *UDCS) Rate(_, k int, t, _, q float64) (float64, error) {
	if err := checkContent(k, p.k); err != nil {
		return 0, err
	}
	w := p.work[k]
	if w.requests <= 0 {
		return 0, nil
	}
	pp := p.params
	remaining := p.horizon - t
	if remaining < 0 {
		remaining = 0
	}
	// Long-run cost minimisation: the delay saving persists beyond the
	// current epoch.
	remaining += (p.LongRun - 1) * p.horizon
	p3 := mec.CaseProbabilities(pp, q, q).P3 // neighbours look like us: overlap assumption
	saving := pp.Qk * pp.W1 * pp.Eta2 * w.requests * p3 * remaining / (2 * pp.HubRate)
	cost := pp.W4 + pp.Eta2*pp.Qk/pp.HubRate
	return numerics.Clamp01((saving - cost) / (2 * pp.W5 * (1 + w.overlap))), nil
}
