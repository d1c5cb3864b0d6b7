package surrogate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// AxisSpec describes one lattice dimension of a sweep: N nodes spread
// uniformly over [Min, Max] (then quantised to the cache-key quantum). N = 1
// freezes the dimension at Min.
type AxisSpec struct {
	Min, Max float64
	N        int
}

// validate checks one axis specification.
func (a AxisSpec) validate(name string) error {
	if a.N < 1 {
		return fmt.Errorf("surrogate: axis %s needs at least 1 node, got %d", name, a.N)
	}
	if math.IsNaN(a.Min) || math.IsInf(a.Min, 0) || math.IsNaN(a.Max) || math.IsInf(a.Max, 0) {
		return fmt.Errorf("surrogate: axis %s bounds must be finite", name)
	}
	if a.N == 1 {
		if a.Max != a.Min && a.Max != 0 {
			return fmt.Errorf("surrogate: axis %s has 1 node but a range [%g, %g]", name, a.Min, a.Max)
		}
		return nil
	}
	if !(a.Max > a.Min) {
		return fmt.Errorf("surrogate: axis %s needs Max > Min, got [%g, %g]", name, a.Min, a.Max)
	}
	return nil
}

// nodes materialises the quantised lattice positions.
func (a AxisSpec) nodes() []float64 {
	out := make([]float64, a.N)
	if a.N == 1 {
		out[0] = Quantise(a.Min)
		return out
	}
	step := (a.Max - a.Min) / float64(a.N-1)
	for i := range out {
		out[i] = Quantise(a.Min + float64(i)*step)
	}
	return out
}

// BuildConfig parametrises one offline sweep.
type BuildConfig struct {
	// Config is the solver configuration every lattice node is solved under.
	Config engine.Config
	// Requests, Pop, Timeliness are the lattice axes over the workload space.
	Requests   AxisSpec
	Pop        AxisSpec
	Timeliness AxisSpec
	// Workers bounds the parallel solve pool (default GOMAXPROCS). Each
	// worker owns one warm engine.Session reused across its nodes.
	Workers int
	// SafetyFactor scales the measured midpoint error into the declared
	// per-cell bound (default 2): the midpoint of a cell is where multilinear
	// interpolation of a smooth field errs most, and the factor buys margin
	// against off-midpoint excursions.
	SafetyFactor float64
	// Obs receives surrogate.build.* telemetry. Nil means no-op.
	Obs obs.Recorder
}

// Build runs the offline sweep: it solves every lattice node with a parallel
// warm-session pool, then solves every cell's held-out midpoint and measures
// the interpolation error there to declare the cell's error bound. A node
// that fails to converge poisons its adjoining cells (+Inf bound — outside
// the trust region) rather than the build; a diverged or errored solve aborts
// the build, because it means the configuration cannot cover the requested
// region at all.
func Build(ctx context.Context, bc BuildConfig) (*Table, error) {
	if err := bc.Config.Validate(); err != nil {
		return nil, fmt.Errorf("surrogate: build config: %w", err)
	}
	for _, a := range []struct {
		name string
		spec AxisSpec
	}{{"Requests", bc.Requests}, {"Pop", bc.Pop}, {"Timeliness", bc.Timeliness}} {
		if err := a.spec.validate(a.name); err != nil {
			return nil, err
		}
	}
	if bc.SafetyFactor == 0 {
		bc.SafetyFactor = 2
	}
	if math.IsNaN(bc.SafetyFactor) || math.IsInf(bc.SafetyFactor, 0) || bc.SafetyFactor < 1 {
		return nil, fmt.Errorf("surrogate: SafetyFactor must be ≥ 1, got %g", bc.SafetyFactor)
	}
	workers := bc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rec := obs.OrNop(bc.Obs)

	cfg := bc.Config
	cfg.WarmStart = nil
	t := &Table{
		BaseKey:      engine.CacheKey(cfg, engine.Workload{}),
		Config:       cfg,
		SafetyFactor: bc.SafetyFactor,
		Axes: [3]Axis{
			{Name: "Requests", Nodes: bc.Requests.nodes()},
			{Name: "Pop", Nodes: bc.Pop.nodes()},
			{Name: "Timeliness", Nodes: bc.Timeliness.nodes()},
		},
	}
	total := t.nodeCount()
	if total > maxTableNodes {
		return nil, fmt.Errorf("surrogate: %d lattice nodes exceed the %d limit", total, maxTableNodes)
	}
	for k, ax := range t.Axes {
		for _, v := range ax.Nodes {
			w := engine.Workload{Requests: 1, Pop: 0.5, Timeliness: 1}
			switch k {
			case 0:
				w.Requests = v
			case 1:
				w.Pop = v
			case 2:
				w.Timeliness = v
			}
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("surrogate: axis %s node %g: %w", ax.Name, v, err)
			}
		}
	}

	// Phase 1: the lattice nodes.
	t.Nodes = make([]Node, total)
	workloads := make([]engine.Workload, total)
	for i := range workloads {
		workloads[i] = t.workloadAt(i)
	}
	times := make([][]float64, total)
	start := time.Now()
	if err := solveEach(ctx, cfg, workers, workloads, nil, func(i int, eq *engine.Equilibrium) error {
		t.Nodes[i], times[i] = SampleEquilibrium(eq)
		return nil
	}); err != nil {
		return nil, err
	}
	rec.Add("surrogate.build.nodes", float64(total))
	for i, tm := range times {
		if i == 0 {
			t.Time = tm
			continue
		}
		if len(tm) != len(t.Time) {
			return nil, fmt.Errorf("surrogate: node %d sampled %d times, node 0 sampled %d (mesh drift)", i, len(tm), len(t.Time))
		}
	}

	// Phase 2: held-out midpoints → per-cell error bounds.
	cells := t.cellCount()
	t.Bounds = make([]float64, cells)
	mids := make([]engine.Workload, cells)
	skip := make([]bool, cells)
	for c := 0; c < cells; c++ {
		ci := t.cellAt(c)
		for _, corner := range t.cellCorners(ci) {
			if !t.Nodes[corner].Converged {
				skip[c] = true
				t.Bounds[c] = math.Inf(1)
				break
			}
		}
		mids[c] = t.cellMidpoint(ci)
	}
	midErr := make([]float64, cells)
	if err := solveEach(ctx, cfg, workers, mids, skip, func(c int, eq *engine.Equilibrium) error {
		if !eq.Converged {
			midErr[c] = math.Inf(1)
			return nil
		}
		d, err := t.summaryError(mids[c], eq)
		if err != nil {
			return err
		}
		midErr[c] = d
		return nil
	}); err != nil {
		return nil, err
	}
	for c := 0; c < cells; c++ {
		if skip[c] {
			continue
		}
		if math.IsInf(midErr[c], 1) {
			t.Bounds[c] = math.Inf(1)
			continue
		}
		t.Bounds[c] = bc.SafetyFactor * midErr[c]
	}
	rec.Add("surrogate.build.cells", float64(cells))
	rec.Observe("surrogate.build.seconds", time.Since(start).Seconds())

	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("surrogate: built table failed validation: %w", err)
	}
	return t, nil
}

// workloadAt maps a flat lattice index onto its workload.
func (t *Table) workloadAt(flat int) engine.Workload {
	np, nt := len(t.Axes[1].Nodes), len(t.Axes[2].Nodes)
	it := flat % nt
	ip := (flat / nt) % np
	ir := flat / (nt * np)
	return engine.Workload{
		Requests:   t.Axes[0].Nodes[ir],
		Pop:        t.Axes[1].Nodes[ip],
		Timeliness: t.Axes[2].Nodes[it],
	}
}

// cellAt maps a flat cell index onto per-axis cell coordinates.
func (t *Table) cellAt(flat int) [3]int {
	var dims [3]int
	for k, ax := range t.Axes {
		dims[k] = len(ax.Nodes) - 1
		if dims[k] < 1 {
			dims[k] = 1
		}
	}
	var ci [3]int
	ci[2] = flat % dims[2]
	ci[1] = (flat / dims[2]) % dims[1]
	ci[0] = flat / (dims[2] * dims[1])
	return ci
}

// cellMidpoint is the held-out probe workload of one cell: the midpoint on
// every free axis, the frozen node on degenerate ones.
func (t *Table) cellMidpoint(ci [3]int) engine.Workload {
	var coord [3]float64
	for k, ax := range t.Axes {
		if len(ax.Nodes) == 1 {
			coord[k] = ax.Nodes[0]
			continue
		}
		coord[k] = (ax.Nodes[ci[k]] + ax.Nodes[ci[k]+1]) / 2
	}
	return engine.Workload{Requests: coord[0], Pop: coord[1], Timeliness: coord[2]}
}

// SummaryError measures how far an interpolated surrogate answer lies from a
// reference solve of the same workload, in the verify-differential metric:
// the sup over time of the price deviation (relative to p̂), the mean-control
// deviation and the mean-remaining deviation (relative to Qk). It is the
// metric the declared cell bounds promise to dominate.
func (t *Table) SummaryError(w engine.Workload, eq *engine.Equilibrium) (float64, error) {
	return t.summaryError(w, eq)
}

func (t *Table) summaryError(w engine.Workload, eq *engine.Equilibrium) (float64, error) {
	// Bypass the bound gate: the bound is what this measurement defines.
	probe := *t
	probe.Bounds = make([]float64, len(t.Bounds))
	cfg := t.Config
	cfg.Surrogate = engine.SurrogateConfig{}
	got, ok := probe.Lookup(cfg, w)
	if !ok {
		return 0, fmt.Errorf("surrogate: probe workload %+v is outside the lattice", w)
	}
	ref, refTimes := SampleEquilibrium(eq)
	if len(refTimes) != len(t.Time) {
		return 0, fmt.Errorf("surrogate: probe sampled %d times, table has %d", len(refTimes), len(t.Time))
	}
	p := t.Config.Params
	var worst float64
	for j := range t.Time {
		for _, d := range []float64{
			math.Abs(got.Price[j]-ref.Price[j]) / p.PHat,
			math.Abs(got.MeanControl[j] - ref.MeanControl[j]),
			math.Abs(got.MeanRemaining[j]-ref.MeanRemaining[j]) / p.Qk,
		} {
			if math.IsNaN(d) {
				return 0, fmt.Errorf("surrogate: non-finite probe deviation at sample %d", j)
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// solveEach solves every workload whose skip entry is unset (skip may be
// nil) through engine.Each, on one warm engine.Session per worker, requiring
// each solve to produce an equilibrium (converged or not). ErrNotConverged
// keeps the partial result (the node is later excluded from the trust region
// through its cells); any other failure aborts with the lowest failing
// index's error. sink runs on the worker goroutine; it must only touch
// index-i state.
func solveEach(ctx context.Context, cfg engine.Config, workers int, ws []engine.Workload, skip []bool, sink func(int, *engine.Equilibrium) error) error {
	sessions := make([]*engine.Session, min(workers, len(ws)))
	return engine.Each(len(ws), workers, func(w, i int) error {
		if skip != nil && skip[i] {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if sessions[w] == nil {
			s, err := engine.NewSession(cfg)
			if err != nil {
				return err
			}
			sessions[w] = s
		}
		eq, err := sessions[w].SolveContext(ctx, ws[i], nil)
		if err != nil && !errors.Is(err, engine.ErrNotConverged) {
			return fmt.Errorf("surrogate: solve %+v: %w", ws[i], err)
		}
		if eq == nil {
			return fmt.Errorf("surrogate: solve %+v returned no equilibrium", ws[i])
		}
		return sink(i, eq)
	})
}
