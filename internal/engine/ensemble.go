package engine

import (
	"fmt"
	"runtime"

	"repro/internal/sde"
)

// EnsembleRollout averages n independent representative-agent rollouts
// (distinct Brownian paths, common initial state and equilibrium). The result
// approximates the expected trajectory E[q(t)], E[U(t)], … that the paper's
// convergence figures plot; single paths carry ±ϱq√t of diffusion noise that
// would obscure the shapes. Members are simulated concurrently through Each;
// the deterministic per-member seeds make the average independent of
// scheduling.
func (eq *Equilibrium) EnsembleRollout(h0, q0 float64, seed int64, n int) (*Rollout, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: ensemble size must be ≥ 1, got %d", n)
	}
	members := make([]*Rollout, n)
	if err := Each(n, runtime.GOMAXPROCS(0), func(_, i int) (err error) {
		members[i], err = eq.SimulateRollout(h0, q0, sde.DeriveSeed(seed, i))
		return err
	}); err != nil {
		return nil, err
	}
	avg := members[0]
	for _, m := range members[1:] {
		accumulate(avg, m)
	}
	scale := 1 / float64(n)
	for _, f := range rolloutFields(avg) {
		for k := range f {
			f[k] *= scale
		}
	}
	// Times are identical across members; undo their averaging-by-scaling.
	for k := range avg.Times {
		avg.Times[k] = eq.Time.At(k)
	}
	return avg, nil
}

func accumulate(dst, src *Rollout) {
	df, sf := rolloutFields(dst), rolloutFields(src)
	for i := range df {
		for k := range df[i] {
			df[i][k] += sf[i][k]
		}
	}
}

func rolloutFields(r *Rollout) [][]float64 {
	return [][]float64{
		r.Times, r.H, r.Q, r.X,
		r.Utility, r.Trading, r.Sharing, r.Placement, r.Staleness, r.ShareCost,
		r.CumUtility, r.CumTrading,
	}
}
