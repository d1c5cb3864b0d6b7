package mec

import (
	"fmt"
	"math"

	"repro/internal/sde"
)

// ChannelModel bundles the Ornstein–Uhlenbeck fading dynamics (Eq. 1) with
// the SINR transmission-rate map (Eq. 2). Two rate evaluations are provided:
//
//   - Rate: the mean-field form used inside the HJB utility, where the
//     aggregate interference of the other EDPs is replaced by its
//     population average (Interfer effective neighbours at distance d̄ with
//     the stationary second moment of h);
//   - RateExact: the pairwise form used by the Monte-Carlo market simulator,
//     which receives the actual interferer gains.
type ChannelModel struct {
	p Params

	// meanLoss is the path loss d̄^(−τ) at the mean distance and sinrDen the
	// mean-field SINR denominator N0 + Ī: both depend on the parameters
	// only, so they are evaluated once here rather than in every Rate.
	meanLoss, sinrDen float64
}

// NewChannelModel validates the parameters and returns the model.
func NewChannelModel(p Params) (*ChannelModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &ChannelModel{p: p, meanLoss: math.Pow(p.MeanDist, -p.PathLoss)}
	c.sinrDen = p.Noise + c.MeanInterference()
	return c, nil
}

// OU returns the Ornstein–Uhlenbeck process of Eq. (1) for this channel.
func (c *ChannelModel) OU() sde.OU {
	return sde.OU{Rate: c.p.ChRate, Mean: c.p.ChMean, Sigma: c.p.ChSigma}
}

// Gain returns the channel gain |g|² = h²·d^(−τ) for fading coefficient h at
// distance d.
func (c *ChannelModel) Gain(h, d float64) float64 {
	if d <= 0 {
		d = c.p.MeanDist
	}
	loss := c.meanLoss
	if d != c.p.MeanDist {
		loss = math.Pow(d, -c.p.PathLoss)
	}
	return h * h * loss
}

// meanSquareFading is E[h²] under the stationary OU law clipped to the
// fading range: mean² + stationary variance.
func (c *ChannelModel) meanSquareFading() float64 {
	ou := c.OU()
	return c.p.ChMean*c.p.ChMean + ou.StationaryVar()
}

// MeanInterference returns the mean-field aggregate interference
// Ī = n_eff · G · E[h²] · d̄^(−τ) that replaces Σ_{i'≠i}|g_{i',j}|²G_{i'} in
// Eq. (2) for the generic player.
func (c *ChannelModel) MeanInterference() float64 {
	return float64(c.p.Interfer) * c.p.TxPower * c.meanSquareFading() * c.meanLoss
}

// Rate is the mean-field transmission rate H(h) = B·log2(1 + SINR(h)) with
// the averaged interference, floored at RateFloor (MB/s).
func (c *ChannelModel) Rate(h float64) float64 {
	sig := c.Gain(h, c.p.MeanDist) * c.p.TxPower
	sinr := sig / c.sinrDen
	r := c.p.Bandwidth * math.Log2(1+sinr)
	if r < c.p.RateFloor {
		return c.p.RateFloor
	}
	return r
}

// RateExact is the pairwise SINR rate of Eq. (2): the serving link has fading
// h and distance d; interferers are given by their fading coefficients and
// distances. Used by the simulator for cross-validation of the mean-field
// approximation.
func (c *ChannelModel) RateExact(h, d float64, intHs, intDs []float64) (float64, error) {
	if len(intHs) != len(intDs) {
		return 0, fmt.Errorf("mec: RateExact: %d interferer gains vs %d distances", len(intHs), len(intDs))
	}
	sig := c.Gain(h, d) * c.p.TxPower
	den := c.p.Noise
	for i := range intHs {
		den += c.Gain(intHs[i], intDs[i]) * c.p.TxPower
	}
	r := c.p.Bandwidth * math.Log2(1+sig/den)
	if r < c.p.RateFloor {
		return c.p.RateFloor, nil
	}
	return r, nil
}

// ClampFading restricts h to the modelled fading range [HMin, HMax].
func (c *ChannelModel) ClampFading(h float64) float64 {
	if h < c.p.HMin {
		return c.p.HMin
	}
	if h > c.p.HMax {
		return c.p.HMax
	}
	return h
}
