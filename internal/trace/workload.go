package trace

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/sde"
)

// EpochWorkload holds the per-content demand of one optimisation epoch at one
// (representative) EDP: the request counts |I_k|, the timeliness level L_k
// and the updated popularity Π_k.
type EpochWorkload struct {
	Epoch      int
	Requests   []float64
	Timeliness []float64
	Popularity []float64
}

// Workload converts content k's slice of the epoch into the solver's
// Workload descriptor.
func (e *EpochWorkload) Workload(k int) (engine.Workload, error) {
	if k < 0 || k >= len(e.Requests) {
		return engine.Workload{}, fmt.Errorf("trace: content %d out of range [0,%d)", k, len(e.Requests))
	}
	return engine.Workload{
		Requests:   e.Requests[k],
		Pop:        e.Popularity[k],
		Timeliness: e.Timeliness[k],
	}, nil
}

// BuildWorkloads derives one EpochWorkload per epoch from the trace:
// each epoch consumes one trace day (cycling if the run outlives the trace),
// splits requestsPerEpoch across contents in proportion to that day's view
// shares with Poisson-like noise, updates the Eq. (3) popularity through the
// catalogue, and carries the trace-derived timeliness levels.
func BuildWorkloads(d *Dataset, p mec.Params, epochs int, requestsPerEpoch float64, seed int64) ([]EpochWorkload, error) {
	if d == nil {
		return nil, fmt.Errorf("trace: nil dataset")
	}
	if epochs < 1 {
		return nil, fmt.Errorf("trace: epochs must be ≥ 1, got %d", epochs)
	}
	if requestsPerEpoch < 0 {
		return nil, fmt.Errorf("trace: requestsPerEpoch must be non-negative, got %g", requestsPerEpoch)
	}
	if d.K != p.K {
		return nil, fmt.Errorf("trace: dataset has %d categories, params expect %d", d.K, p.K)
	}
	catalog, err := mec.NewCatalog(p)
	if err != nil {
		return nil, err
	}
	timeliness := d.Timeliness(p.LMax)
	rng := sde.NewRNG(seed)

	out := make([]EpochWorkload, epochs)
	for e := 0; e < epochs; e++ {
		shares, err := d.DayShares(e % d.Days)
		if err != nil {
			return nil, err
		}
		reqs := make([]float64, p.K)
		for k := range reqs {
			mean := requestsPerEpoch * shares[k]
			// Gaussian approximation of Poisson counts, floored at zero.
			noisy := mean + math.Sqrt(math.Max(mean, 0))*rng.NormFloat64()
			reqs[k] = math.Max(0, math.Round(noisy))
		}
		if err := catalog.UpdatePopularity(reqs); err != nil {
			return nil, err
		}
		pops := make([]float64, p.K)
		for k := range pops {
			pops[k] = catalog.Contents[k].Pop
		}
		out[e] = EpochWorkload{
			Epoch:      e,
			Requests:   reqs,
			Timeliness: append([]float64(nil), timeliness...),
			Popularity: pops,
		}
	}
	return out, nil
}
