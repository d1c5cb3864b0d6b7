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

// CaseSteps are the two logistic smooth steps of the case probabilities at
// one remaining space v: Below = f(αQk − v), the smoothed "has cached
// enough" indicator, and Above = f(v − αQk), its complement. The case
// probabilities of an EDP at q among peers at q̄ combine the steps at q with
// those at q̄, so a solver evaluates the steps at each q node once and the
// steps at q̄ once per time level.
type CaseSteps struct {
	Below, Above float64
}

// CaseStepsAt evaluates the smooth steps at remaining space v.
func CaseStepsAt(p *Params, v float64) CaseSteps {
	aq := p.AlphaQ()
	return CaseSteps{
		Below: numerics.SmoothStep(p.SmoothL, aq-v),
		Above: numerics.SmoothStep(p.SmoothL, v-aq),
	}
}

// Cases combines the steps at the own remaining space (the receiver) with
// the steps at the peer level into P1–P3.
func (own CaseSteps) Cases(peer CaseSteps) Cases {
	return Cases{
		P1: own.Below,
		P2: own.Above * peer.Below,
		P3: own.Above * peer.Above,
	}
}

// CaseProbabilities evaluates P1, P2, P3 for own remaining space q and peer
// remaining space qbar:
//
//	P1 = f(αQk − q)
//	P2 = f(q − αQk) · f(αQk − qbar)
//	P3 = f(q − αQk) · f(qbar − αQk)
func CaseProbabilities(p Params, q, qbar float64) Cases {
	return CaseStepsAt(&p, q).Cases(CaseStepsAt(&p, qbar))
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
	rate := u.Channel.Rate(h)
	r := u.QTermsAt(q, CaseStepsAt(&u.P, q).Cases(CaseStepsAt(&u.P, u.QBar)))
	placement, staleness := u.Costs(&r, x, rate, u.P.Qk/rate)
	return UtilityTerms{
		Trading:   r.Trading,
		Sharing:   r.Sharing,
		Placement: placement,
		Staleness: staleness,
		ShareCost: r.ShareCost,
	}
}

// QTerms holds what the utility at one q node takes from q and the
// context's q̄ alone: the trading income, the sharing benefit, the sharing
// cost, and the case-weighted parts of the per-requester service delay. A
// solver evaluates them once per q node and time level, and Costs adds the
// two terms that depend on x or h at every node of that q.
type QTerms struct {
	Trading   float64 // Φ¹
	Sharing   float64 // Φ²
	ShareCost float64 // C³

	own   float64 // P1·(Qk−q): volume served from the own cache
	peer  float64 // P2·(Qk−q̄): volume served with a peer's share
	cloud float64 // P3: weight of a fetch from the centre
	hub   float64 // q/Hc: centre download of the missing portion
}

// QTermsAt evaluates the x- and h-free terms at remaining space q, given the
// case probabilities cs at (q, u.QBar).
func (u *UtilityContext) QTermsAt(q float64, cs Cases) QTerms {
	p := &u.P
	if !u.ShareEnabled {
		// Without sharing, any own miss is served by the centre: P2 mass
		// moves into P3.
		cs.P3 += cs.P2
		cs.P2 = 0
	}
	r := QTerms{
		own:   cs.P1 * (p.Qk - q),
		peer:  cs.P2 * (p.Qk - u.QBar),
		cloud: cs.P3,
		hub:   q / p.HubRate,
	}

	// Φ¹ — trading income (Eq. 6): requests × price × data volume served in
	// each case. In Case 1 the EDP sells its cached portion Qk−q; in Case 2
	// the peer-complemented volume Qk−q̄; in Case 3 the whole content.
	r.Trading = u.Requests * u.Price * (r.own + r.peer + cs.P3*p.Qk)

	if u.ShareEnabled {
		// Φ² — sharing benefit. The mean-field estimator supplies the
		// average benefit Φ̄²(t) per qualified sharer; the probability this
		// EDP qualifies is the Case-1 weight f(αQk − q).
		r.Sharing = cs.P1 * u.ShareBenefit
		// C³ — sharing cost: in Case 2 the EDP pays p̄k per MB obtained from
		// the peer, proportional to its own deficit relative to the peer.
		r.ShareCost = cs.P2 * p.SharePrice * (q - u.QBar)
		if r.ShareCost < 0 {
			r.ShareCost = 0 // the EDP never pays a negative amount
		}
	}
	return r
}

// Costs returns the two terms of the utility that depend on the control x
// or the channel h: the placement cost C¹ and the staleness cost C², at
// control x on an h node with channel rate H(h) = rate and qkRate = Qk/H(h),
// from the terms r of the node's q.
func (u *UtilityContext) Costs(r *QTerms, x, rate, qkRate float64) (placement, staleness float64) {
	p := &u.P
	// C¹ — placement cost (Eq. 8).
	placement = p.W4*x + p.W5*x*x
	// C² — staleness cost (Eq. 9): download-from-centre delay for the newly
	// cached portion plus the per-requester service delay in each case.
	perReq := r.own/rate + r.peer/rate + r.cloud*(r.hub+qkRate)
	staleness = p.Eta2 * (p.Qk*x/p.HubRate + u.Requests*perReq)
	return placement, staleness
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
