package main

import (
	"context"
	"fmt"
	"math"
	"time"

	mfgcp "repro"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Market workload sizing: the paper's defaults M = 300 EDPs and K = 20
// contents under MFG-CP. One epoch takes about 0.7 s on two cores, so
// marketPerSecond epochs per --seconds fill the phase; the epoch count
// depends only on --seconds, so a faster run replays the same epochs.
const (
	marketM         = 300
	marketK         = 20
	marketPerSecond = 1.5
	marketSetups    = 25 // set-ups per run; setup_s is their median
)

// timedPolicy wraps MFG-CP to time each Prepare and read back the epoch's
// equilibria. Embedding the concrete policy forwards every optional setter
// the simulator feature-tests for (equilibrium cache, recovery, checkpoint
// state).
type timedPolicy struct {
	*policy.MFGCP
	starts    []time.Time
	prepare   []time.Duration
	solved    int
	converged int
	warmIters []float64
}

func (p *timedPolicy) Prepare(ctx *policy.EpochContext) error {
	start := time.Now()
	err := p.MFGCP.Prepare(ctx)
	p.prepare = append(p.prepare, time.Since(start))
	p.starts = append(p.starts, start)
	if err != nil {
		return err
	}
	for k := 0; k < ctx.Params.K; k++ {
		eq, err := p.Equilibrium(k)
		if err != nil {
			return err
		}
		if eq == nil {
			continue
		}
		p.solved++
		if eq.Converged {
			p.converged++
		}
		if ctx.Epoch > 0 {
			p.warmIters = append(p.warmIters, float64(eq.Iterations))
		}
	}
	return nil
}

// marketSetup is everything before the first epoch: the demand trace, the
// market configuration and the policy. The trace is the generator's default
// dataset, as for the other workloads; the seed drives the simulation's own
// random streams (placement, fading, cache noise, peer draws).
func marketSetup(o options, epochs int) (sim.Config, *timedPolicy, error) {
	params := mfgcp.DefaultParams()
	params.M, params.K = marketM, marketK
	gen := trace.DefaultGenConfig()
	gen.K = params.K
	ds, err := trace.Generate(gen)
	if err != nil {
		return sim.Config{}, nil, err
	}
	pol := &timedPolicy{MFGCP: policy.NewMFGCP()}
	cfg, err := mfgcp.ApplyMarketOptions(mfgcp.DefaultMarketConfig(params, pol), mfgcp.WithEpochs(epochs), mfgcp.WithSeed(o.seed))
	if err != nil {
		return sim.Config{}, nil, err
	}
	cfg.Trace = ds
	return cfg, pol, nil
}

// runMarket runs consecutive seeded MFG-CP epochs through
// mfgcp.RunMarketContext in-process; no daemon is involved.
func runMarket(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	epochs := int(math.Round(marketPerSecond * float64(o.seconds)))
	if epochs < 2 {
		epochs = 2
	}
	var (
		cfg    sim.Config
		pol    *timedPolicy
		err    error
		setups []float64
	)
	for i := 0; i < marketSetups; i++ {
		start := time.Now()
		if cfg, pol, err = marketSetup(o, epochs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	out.notes["setup_s_each"] = setups

	var reg *obs.Registry
	if o.traced {
		reg = obs.NewRegistry(nil)
		cfg.Obs = reg
	}
	rt0 := readRuntime()
	start := time.Now()
	res, err := mfgcp.RunMarketContext(ctx, cfg)
	end := time.Now()
	rt1 := readRuntime()
	if err != nil {
		return nil, err
	}
	out.e2e["heap_live_mb"] = liveHeapMB()

	elapsed := end.Sub(start)
	walls := make([]float64, len(pol.starts))
	for i, s := range pol.starts {
		next := end
		if i+1 < len(pol.starts) {
			next = pol.starts[i+1]
		}
		walls[i] = ms(next.Sub(s))
	}
	out.e2e["throughput_per_s"] = float64(len(res.Stats)) / elapsed.Seconds()
	if err := latencyMetrics(out, walls); err != nil {
		out.problem("%v", err)
	}

	// Every per-content solve Prepare ran is an answer: an error would have
	// ended the run above, and an equilibrium that stops at the iteration
	// cap is one MFG-CP accepts by design (its share is reported apart).
	t := &tally{Sent: int64(pol.solved), Succeeded: int64(pol.solved), Sources: map[serve.Source]int64{}}
	out.addPhase("timed", t, pol.solved)
	out.notes["nonconverged_solves"] = pol.solved - pol.converged
	if len(res.Stats) != epochs || len(pol.prepare) != epochs {
		out.problem("%d epochs configured, %d simulated, %d prepared", epochs, len(res.Stats), len(pol.prepare))
	}
	for _, p := range ledgerProblems(res, cfg.Params.M) {
		out.problem("ledger: %s", p)
	}
	var prepare []float64
	for i, es := range res.Stats {
		if i >= len(pol.prepare) {
			break
		}
		// The simulator times the same Prepare call from outside: the
		// wrapper's own timing must fit inside it.
		if d := es.StrategyTime - pol.prepare[i]; d < 0 || d > 5*time.Millisecond {
			out.problem("epoch %d: Prepare took %v inside the wrapper but %v by EpochStats.StrategyTime", i, pol.prepare[i], es.StrategyTime)
		}
		prepare = append(prepare, ms(pol.prepare[i]))
	}

	if o.traced {
		steps := make([]float64, len(prepare))
		for i := range prepare {
			steps[i] = walls[i] - prepare[i]
		}
		snap := reg.Snapshot()
		out.layer["policy.prepare_ms"] = mean(prepare)
		out.layer["policy.solves_per_epoch"] = ratio(snap.Counters["core.solver.solves"], float64(len(res.Stats)))
		out.layer["sim.step_ms"] = mean(steps)
		out.layer["engine.warm_iterations_per_solve"] = mean(pol.warmIters)
		out.layer["policy.nonconverged_frac"] = ratio(float64(pol.solved-pol.converged), float64(pol.solved))
		runtimeLayers(out, rt0, rt1, int64(len(res.Stats)))
		genLayers(out, nil)
	}
	out.notes["epochs"] = len(res.Stats)
	out.notes["per_content_solves"] = pol.solved
	out.notes["timed_s"] = elapsed.Seconds()
	return out, nil
}

// ledgerProblems checks the run's ledgers against the Eq. 10 decomposition
// U = trading + sharing − placement − staleness − share cost. Each epoch's
// mean utility must not exceed its income minus staleness (placement and
// share costs are non-negative), the epochs' implied costs must sum to the
// EDPs' recorded placement and share costs, every income and staleness term
// must sum across epochs to the EDP ledgers, and share payments must balance
// (every payment is one EDP's cost and another's income).
func ledgerProblems(res *sim.Result, m int) []string {
	var out []string
	var trading, sharing, stale, implied float64
	for i, es := range res.Stats {
		cost := es.MeanTrading + es.MeanSharing - es.MeanStale - es.MeanUtility
		if !(cost >= -1e-9*math.Max(1, math.Abs(es.MeanUtility))) {
			out = append(out, fmt.Sprintf("epoch %d: utility %g exceeds income minus staleness by %g", i, es.MeanUtility, -cost))
		}
		trading += es.MeanTrading
		sharing += es.MeanSharing
		stale += es.MeanStale
		implied += cost
	}
	var sum sim.Ledger
	for _, l := range res.Ledgers {
		sum.Trading += l.Trading
		sum.Sharing += l.Sharing
		sum.Placement += l.Placement
		sum.Staleness += l.Staleness
		sum.ShareCost += l.ShareCost
	}
	fm := float64(m)
	for _, c := range []struct {
		name       string
		epochs, ed float64
	}{
		{"trading", trading * fm, sum.Trading},
		{"sharing", sharing * fm, sum.Sharing},
		{"staleness", stale * fm, sum.Staleness},
		{"placement + share cost", implied * fm, sum.Placement + sum.ShareCost},
		{"share payments vs share income", sum.ShareCost, sum.Sharing},
	} {
		if !approxEqual(c.epochs, c.ed) {
			out = append(out, fmt.Sprintf("%s: epochs sum to %g, EDP ledgers to %g", c.name, c.epochs, c.ed))
		}
	}
	return out
}

// approxEqual compares two sums of the same terms taken in different orders.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
