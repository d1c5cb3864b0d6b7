package mec

import (
	"fmt"

	"repro/internal/numerics"
	"repro/internal/sde"
)

// Cases holds the smoothed occurrence probabilities of the three service
// cases (Section III-A):
//
//	P1 — the EDP itself has cached enough of the content (q ≤ α·Qk);
//	P2 — it has not, but a peer EDP has (peer share);
//	P3 — neither has: the content is fetched from the cloud centre.
//
// With the logistic smooth step f, P1+P2+P3 = 1 identically because
// f(x)+f(−x) = 1.
type Cases struct {
	P1, P2, P3 float64
}

// CaseProbabilities evaluates P1, P2, P3 for own remaining space q and peer
// remaining space qbar:
//
//	P1 = f(αQk − q)
//	P2 = f(q − αQk) · f(αQk − qbar)
//	P3 = f(q − αQk) · f(qbar − αQk)
func CaseProbabilities(p Params, q, qbar float64) Cases {
	aq := p.AlphaQ()
	l := p.SmoothL
	own := numerics.SmoothStep(l, aq-q)     // "cached enough" indicator
	notOwn := numerics.SmoothStep(l, q-aq)  // complement
	peer := numerics.SmoothStep(l, aq-qbar) // peer cached enough
	return Cases{
		P1: own,
		P2: notOwn * peer,
		P3: notOwn * numerics.SmoothStep(l, qbar-aq),
	}
}

// PriceMeanField evaluates the limiting dynamic price of Eq. (17):
//
//	p(t) = p̂ − η1 · Qk · ∫∫ λ(S) x*(S) dS
//
// where meanX is the population-average caching rate E_λ[x*]. The price is
// floored at zero: the supply-demand rule never forces EDPs to pay buyers.
func PriceMeanField(p Params, meanX float64) float64 {
	price := p.PHat - p.Eta1*p.Qk*meanX
	if price < 0 {
		return 0
	}
	return price
}

// PriceExact evaluates the finite-M price of Eq. (5) for EDP i given the
// caching rates of all M EDPs: p_i = p̂ − η1·Σ_{i'≠i} Qk·x_{i'} / (M−1).
// With M == 1 the price is simply p̂.
func PriceExact(p Params, rates []float64, i int) (float64, error) {
	m := len(rates)
	if i < 0 || i >= m {
		return 0, fmt.Errorf("mec: PriceExact: index %d out of range [0,%d)", i, m)
	}
	if m == 1 {
		return p.PHat, nil
	}
	var sum float64
	for j, x := range rates {
		if j == i {
			continue
		}
		sum += p.Qk * x
	}
	price := p.PHat - p.Eta1*sum/float64(m-1)
	if price < 0 {
		price = 0
	}
	return price, nil
}

// UtilityTerms decomposes the instantaneous utility U (Eq. 10) of a generic
// EDP for one content: U = Φ¹ + Φ² − C¹ − C² − C³.
type UtilityTerms struct {
	Trading   float64 // Φ¹, trading income (Eq. 6)
	Sharing   float64 // Φ², sharing benefit (Eq. 7 / mean-field Φ̄²)
	Placement float64 // C¹, content placement cost (Eq. 8)
	Staleness float64 // C², request-service-delay penalty (Eq. 9)
	ShareCost float64 // C³, payment for peer sharing
}

// Total returns Φ¹ + Φ² − C¹ − C² − C³.
func (t UtilityTerms) Total() float64 {
	return t.Trading + t.Sharing - t.Placement - t.Staleness - t.ShareCost
}

// UtilityContext carries the per-epoch, per-content quantities the utility
// needs beyond the EDP's own state: the mean-field estimator outputs (price,
// peer cache level q̄, average sharing benefit) and the workload descriptors
// (request count, popularity, timeliness). Building one context per time step
// lets the HJB solver evaluate U(t, x, S, λ) as a pure function of (x, h, q).
type UtilityContext struct {
	P       Params
	Channel *ChannelModel

	Price        float64 // p(t)
	QBar         float64 // q̄_{−,k}(t), mean remaining space of peers
	ShareBenefit float64 // Φ̄²(t), average sharing benefit of a qualified sharer
	Requests     float64 // |I_k(t)|
	Pop          float64 // Π_k(t)
	Timeliness   float64 // L_k(t)

	// ShareEnabled distinguishes MFG-CP from the paper's MFG baseline, which
	// drops peer sharing entirely: the sharing benefit Φ² and cost C³ vanish
	// and Case 2 collapses into Case 3 (every miss is served by the centre).
	ShareEnabled bool
}

// NewUtilityContext validates inputs and builds a context with sharing on.
func NewUtilityContext(p Params, ch *ChannelModel) (*UtilityContext, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("mec: NewUtilityContext: nil channel model")
	}
	return &UtilityContext{
		P:            p,
		Channel:      ch,
		Price:        p.PHat,
		QBar:         p.InitMeanFrac * p.Qk,
		Requests:     0,
		Pop:          1 / float64(p.K),
		Timeliness:   p.LMax / 2,
		ShareEnabled: true,
	}, nil
}

// Terms evaluates the decomposed utility at control x and state (h, q).
func (u *UtilityContext) Terms(x, h, q float64) UtilityTerms {
	return u.TermsAt(x, q, u.Channel.Rate(h), CaseProbabilities(u.P, q, u.QBar))
}

// TermsAt is Terms with the two separable factors supplied by the caller:
// the channel rate H(h) and the case probabilities cs at (q, u.QBar). The
// rate depends on h alone and the cases on q and q̄ alone, so a solver
// evaluates each once per grid line and time level instead of at every node.
func (u *UtilityContext) TermsAt(x, q, rate float64, cs Cases) UtilityTerms {
	p := &u.P
	if !u.ShareEnabled {
		// Without sharing, any own miss is served by the centre: P2 mass
		// moves into P3.
		cs.P3 += cs.P2
		cs.P2 = 0
	}

	// Φ¹ — trading income (Eq. 6): requests × price × data volume served in
	// each case. In Case 1 the EDP sells its cached portion Qk−q; in Case 2
	// the peer-complemented volume Qk−q̄; in Case 3 the whole content.
	trading := u.Requests * u.Price * (cs.P1*(p.Qk-q) + cs.P2*(p.Qk-u.QBar) + cs.P3*p.Qk)

	// Φ² — sharing benefit. The mean-field estimator supplies the average
	// benefit Φ̄²(t) per qualified sharer; the probability this EDP qualifies
	// is the Case-1 weight f(αQk − q).
	var sharing float64
	if u.ShareEnabled {
		sharing = cs.P1 * u.ShareBenefit
	}

	// C¹ — placement cost (Eq. 8).
	placement := p.W4*x + p.W5*x*x

	// C² — staleness cost (Eq. 9): download-from-centre delay for the newly
	// cached portion plus the per-requester service delay in each case.
	perReq := cs.P1*(p.Qk-q)/rate + cs.P2*(p.Qk-u.QBar)/rate + cs.P3*(q/p.HubRate+p.Qk/rate)
	staleness := p.Eta2 * (p.Qk*x/p.HubRate + u.Requests*perReq)

	// C³ — sharing cost: in Case 2 the EDP pays p̄k per MB obtained from the
	// peer, proportional to its own deficit relative to the peer.
	var shareCost float64
	if u.ShareEnabled {
		shareCost = cs.P2 * p.SharePrice * (q - u.QBar)
		if shareCost < 0 {
			shareCost = 0 // the EDP never pays a negative amount
		}
	}

	return UtilityTerms{
		Trading:   trading,
		Sharing:   sharing,
		Placement: placement,
		Staleness: staleness,
		ShareCost: shareCost,
	}
}

// Utility evaluates U(t, x, S, λ) = Φ¹ + Φ² − C¹ − C² − C³ (Eq. 10).
func (u *UtilityContext) Utility(x, h, q float64) float64 {
	return u.Terms(x, h, q).Total()
}

// CacheDrift builds the Eq. (4) drift object for the current popularity and
// timeliness.
func (u *UtilityContext) CacheDrift() sde.CacheDrift {
	return sde.CacheDrift{
		Qk:     u.P.Qk,
		W1:     u.P.W1,
		W2:     u.P.W2,
		W3:     u.P.W3,
		Xi:     u.P.Xi,
		SigmaQ: u.P.SigmaQ,
	}
}

// QDrift evaluates the remaining-space drift b_q(x) = Qk[−w1x − w2Π + w3ξ^L]
// at the context's popularity and timeliness.
func (u *UtilityContext) QDrift(x float64) float64 {
	return u.CacheDrift().Rate(x, u.Pop, u.Timeliness)
}
