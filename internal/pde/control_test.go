package pde

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/numerics"
	"repro/internal/obs"
)

// referenceControlAt is ControlAt written out as it read before the control
// field existed: the nearest time level by t/dt, each axis located from its
// own Step(), the bilinear corner sum, then the clamp to [0, 1]. It shares no
// code with the readers it checks.
func referenceControlAt(s *HJBSolution, t, h, q float64) float64 {
	dt := s.Time.Dt()
	n := int(t/dt + 0.5)
	if n < 0 {
		n = 0
	}
	if n > s.Time.Steps {
		n = s.Time.Steps
	}
	locate := func(a grid.Axis, x float64) (int, float64) {
		x = a.Clamp(x)
		t := (x - a.Min) / a.Step()
		i := int(math.Floor(t))
		if i > a.N-2 {
			i = a.N - 2
		}
		if i < 0 {
			i = 0
		}
		f := t - float64(i)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return i, f
	}
	g := s.Grid
	i, fh := locate(g.H, h)
	j, fq := locate(g.Q, q)
	field := s.X[n]
	v00 := field[g.Idx(i, j)]
	v01 := field[g.Idx(i, j+1)]
	v10 := field[g.Idx(i+1, j)]
	v11 := field[g.Idx(i+1, j+1)]
	return numerics.Clamp01(v00*(1-fh)*(1-fq) + v01*(1-fh)*fq + v10*fh*(1-fq) + v11*fh*fq)
}

// randomControlSolution is an HJB solution on a grid with awkward bounds
// whose control levels hold random values in [−0.25, 1.25], so the clamp
// matters at some reads.
func randomControlSolution(t *testing.T, rng *rand.Rand) *HJBSolution {
	t.Helper()
	g, err := grid.NewGrid2D(grid.Axis{Min: 0.37, Max: 9.1, N: 9}, grid.Axis{Min: 0, Max: 47.3, N: 41})
	if err != nil {
		t.Fatal(err)
	}
	sol := NewHJBSolution(g, testMesh(t, 1.3, 60))
	for _, level := range sol.X {
		for k := range level {
			level[k] = 1.5*rng.Float64() - 0.25
		}
	}
	return sol
}

// TestControlFieldMatchesReference pins the hoisted read to the old one bit
// for bit: random states, states outside both axes, nodes and cell faces,
// times exactly at level midpoints, before zero and past the horizon.
func TestControlFieldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	sol := randomControlSolution(t, rng)
	f, err := sol.ControlField()
	if err != nil {
		t.Fatal(err)
	}
	g, tm := sol.Grid, sol.Time
	dt := tm.Dt()

	var hs, qs, ts []float64
	for i := 0; i < g.H.N; i++ {
		hs = append(hs, g.H.At(i))
		if i+1 < g.H.N {
			hs = append(hs, 0.5*(g.H.At(i)+g.H.At(i+1)))
		}
	}
	for j := 0; j < g.Q.N; j++ {
		qs = append(qs, g.Q.At(j))
		if j+1 < g.Q.N {
			qs = append(qs, 0.5*(g.Q.At(j)+g.Q.At(j+1)))
		}
	}
	hs = append(hs, g.H.Min-1, g.H.Max+2, math.Nextafter(g.H.Max, math.Inf(1)), math.Nextafter(g.H.Min, math.Inf(-1)))
	qs = append(qs, -5, g.Q.Max+10, math.Copysign(0, -1), math.Nextafter(g.Q.Max, math.Inf(1)))
	for n := 0; n <= tm.Steps; n++ {
		ts = append(ts, tm.At(n), (float64(n)+0.5)*dt)
	}
	ts = append(ts, -dt, -0.4*dt, tm.Horizon+dt, 10*tm.Horizon, math.Nextafter(tm.Horizon, math.Inf(1)))

	check := func(tv, h, q float64) {
		t.Helper()
		want := referenceControlAt(sol, tv, h, q)
		if got := f.At(tv, h, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ControlField.At(%v, %v, %v) = %v, want %v", tv, h, q, got, want)
		}
		got, err := sol.ControlAt(tv, h, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ControlAt(%v, %v, %v) = %v, want %v", tv, h, q, got, want)
		}
	}
	for _, tv := range []float64{0, 0.5 * dt, 17.5 * dt, -dt, tm.Horizon + dt} {
		for _, h := range hs {
			for _, q := range qs {
				check(tv, h, q)
			}
		}
	}
	for _, tv := range ts {
		check(tv, hs[rng.Intn(len(hs))], qs[rng.Intn(len(qs))])
	}
	for i := 0; i < 20000; i++ {
		tv := (1.2*rng.Float64() - 0.1) * tm.Horizon
		h := g.H.Min + (1.4*rng.Float64()-0.2)*(g.H.Max-g.H.Min)
		q := g.Q.Min + (1.4*rng.Float64()-0.2)*(g.Q.Max-g.Q.Min)
		check(tv, h, q)
	}
}

// TestControlFieldRefusesMismatchedLevels pins that a control path that does
// not fit its grid and time mesh is refused when the field is built, so that
// no read of a field can fail.
func TestControlFieldRefusesMismatchedLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]func(s *HJBSolution){
		"short level":    func(s *HJBSolution) { s.X[3] = s.X[3][:len(s.X[3])-1] },
		"missing level":  func(s *HJBSolution) { s.X = s.X[:len(s.X)-1] },
		"grid mismatch":  func(s *HJBSolution) { s.Grid.Q.N++ },
		"degenerate H":   func(s *HJBSolution) { s.Grid.H.N = 1 },
		"empty time":     func(s *HJBSolution) { s.Time.Steps, s.X = 0, s.X[:1] },
		"empty Q range":  func(s *HJBSolution) { s.Grid.Q.Max = s.Grid.Q.Min },
		"too many steps": func(s *HJBSolution) { s.Time.Steps++ },
	}
	for name, mutate := range cases {
		sol := randomControlSolution(t, rng)
		mutate(sol)
		if _, err := sol.ControlField(); err == nil {
			t.Errorf("%s: ControlField accepted the solution", name)
		}
	}
}

// TestSweepCountersOncePerSolve pins the per-solve sweep counters: one HJB
// and one FPK solve each count Steps × (NH + NQ) line sweeps, the totals the
// per-level counters added up to, and no per-level sweep histogram remains.
func TestSweepCountersOncePerSolve(t *testing.T) {
	reg := obs.NewRegistry(nil)
	hp := benchHJBProblem(t, reg)
	if _, err := SolveHJB(hp); err != nil {
		t.Fatal(err)
	}
	fp, lambda0 := benchFPKProblem(t, reg)
	if _, err := SolveFPK(fp, lambda0); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := float64(hp.Time.Steps * (hp.Grid.H.N + hp.Grid.Q.N))
	for _, name := range []string{"pde.hjb.sweeps", "pde.fpk.sweeps"} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %g after one solve, want Steps × (NH + NQ) = %g", name, got, want)
		}
	}
	for _, gone := range []string{"pde.hjb.sweep.h.seconds", "pde.hjb.sweep.q.seconds", "pde.fpk.sweep.h.seconds", "pde.fpk.sweep.q.seconds"} {
		if _, ok := snap.Histograms[gone]; ok {
			t.Errorf("per-level histogram %s is still recorded", gone)
		}
	}
}
