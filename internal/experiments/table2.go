package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/metrics"
	"repro/internal/policy"
)

func init() { register("table2", Table2) }

// Table2 reproduces Table II: the strategy-computation time of MFG-CP, RR and
// MPC as the number of EDPs grows (the paper sweeps M ∈ {50, 100, 200, 300}).
// Paper shape to match: MFG-CP's time is flat in M — the generic-player
// equilibrium is computed once for the whole population — while RR and MPC
// run per-EDP work and grow linearly. Absolute seconds differ from the
// paper's testbed; the scaling behaviour is the claim.
func Table2(opt Options) (*Report, error) {
	rep := &Report{ID: "table2", Title: "Strategy computation time vs number of EDPs (Table II)"}
	ms, reps := table2Sweep(opt)
	cols := []string{"scheme"}
	for _, m := range ms {
		cols = append(cols, fmt.Sprintf("M=%d", m))
	}
	tab := metrics.NewTable("strategy computation time (seconds)", cols...)

	growth := map[string][]float64{}
	for _, pol := range table2Policies() {
		row := []string{pol.Name()}
		for _, m := range ms {
			secs, err := timeStrategy(pol, m, reps, opt)
			if err != nil {
				return nil, fmt.Errorf("%s, M=%d: %w", pol.Name(), m, err)
			}
			row = append(row, fmt.Sprintf("%.6f", secs))
			growth[pol.Name()] = append(growth[pol.Name()], secs)
		}
		if err := tab.AddRow(row...); err != nil {
			return nil, err
		}
	}
	rep.Tables = append(rep.Tables, tab)

	mf := growth["MFG-CP"]
	rr := growth["RR"]
	rep.Note("MFG-CP time ratio (largest M / smallest M): %.2f — expected ≈1 (population-size independent)",
		metrics.Ratio(mf[len(mf)-1], mf[0]))
	rep.Note("RR time ratio (largest M / smallest M): %.2f — expected ≈%d (per-EDP strategy work)",
		metrics.Ratio(rr[len(rr)-1], rr[0]), ms[len(ms)-1]/ms[0])
	return rep, nil
}

// table2Policies returns fresh cold policies for the schemes Table II
// compares. It times the strategy determination itself, so the MFG-CP
// warm-start shortcut (an optimisation of repeated epochs) is disabled.
func table2Policies() []policy.Policy {
	mfgcp := policy.NewMFGCP()
	mfgcp.DisableWarmStart = true
	return []policy.Policy{mfgcp, policy.NewRR(), policy.NewMPC()}
}

// table2Sweep returns the population sizes Table II sweeps and the minimum
// repetitions per timing.
func table2Sweep(opt Options) (ms []int, reps int) {
	if opt.Quick {
		return []int{20, 60}, 1
	}
	return []int{50, 100, 200, 300}, 3
}

// timeStrategy measures the strategy-determination step (policy.Prepare) for
// a population of m EDPs, averaged over reps repetitions.
func timeStrategy(pol policy.Policy, m, reps int, opt Options) (float64, error) {
	ctx, err := strategyContext(m, opt)
	if err != nil {
		return 0, err
	}
	// Adaptive repetitions: the baselines prepare in microseconds, so keep
	// repeating until the measurement is long enough to be meaningful.
	var total time.Duration
	ran := 0
	for ran < reps || (total < 20*time.Millisecond && ran < 200) {
		start := time.Now()
		if err := pol.Prepare(ctx); err != nil {
			return 0, err
		}
		total += time.Since(start)
		ran++
	}
	return total.Seconds() / float64(ran), nil
}

// strategyContext builds the epoch Table II prepares for a population of m
// EDPs: the first trace day's demand, identical for every m.
func strategyContext(m int, opt Options) (*policy.EpochContext, error) {
	p := mec.Default()
	p.M = m
	catalog, err := mec.NewCatalog(p)
	if err != nil {
		return nil, err
	}
	ds, err := defaultTrace(p, opt.Seed)
	if err != nil {
		return nil, err
	}
	shares, err := ds.DayShares(0)
	if err != nil {
		return nil, err
	}
	timeliness := ds.Timeliness(p.LMax)
	reqs := make([]float64, p.K)
	for k := range reqs {
		reqs[k] = 30 * shares[k]
	}
	if err := catalog.UpdatePopularity(reqs); err != nil {
		return nil, err
	}
	workloads := make([]engine.Workload, p.K)
	for k := range workloads {
		workloads[k] = engine.Workload{Requests: reqs[k], Pop: catalog.Contents[k].Pop, Timeliness: timeliness[k]}
	}
	solver := solverConfig(p, opt)
	if opt.Quick {
		solver.NH, solver.NQ, solver.Steps, solver.MaxIters = 5, 21, 30, 15
	}
	return &policy.EpochContext{
		Params:    p,
		Catalog:   catalog,
		Workloads: workloads,
		Solver:    solver,
		Epoch:     0,
		Seed:      opt.Seed,
	}, nil
}
