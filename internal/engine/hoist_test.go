package engine

import (
	"math"
	"testing"

	"repro/internal/mec"
	"repro/internal/numerics"
)

// TestHoistedTermsBitIdentical pins the session's level kernels to the
// per-node formulas they evaluate, bit for bit, at every node of every time
// level over a few best-response iterations with sharing on and off. It
// drives the HJB callbacks with x ≡ 0, x ≡ 1 and the iteration's x = X[n]:
//
//   - Running against UtilityContext.Utility,
//   - both q drifts against UtilityContext.QDrift,
//   - Control against OptimalControl at the iteration's ∂qV,
//   - the snapshot's Case-3 moment against CaseProbabilities at every node.
//
// The kernels and the per-node wrappers share one body per formula, so this
// compares two call paths of each formula: what the kernels hoist out of
// the node loop, and the order they combine it in.
func TestHoistedTermsBitIdentical(t *testing.T) {
	for _, share := range []bool{true, false} {
		cfg, w := smallConfig()
		cfg.ShareEnabled = share
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		if err := s.begin(w, nil); err != nil {
			t.Fatalf("begin: %v", err)
		}
		for iter := 1; iter <= 3; iter++ {
			if _, err := s.iterate(iter); err != nil {
				t.Fatalf("iterate: %v", err)
			}
			checkHoistedTerms(t, s, share, iter)
		}
	}
}

func checkHoistedTerms(t *testing.T, s *Session, share bool, iter int) {
	t.Helper()
	g, tm, p := s.g, s.tm, s.cfg.Params
	same := func(what string, n, i, j int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("share=%v iteration %d node (%d,%d,%d): %s = %v, per-node formula %v",
				share, iter, n, i, j, what, got, want)
		}
	}
	grad, x, out := g.NewField(), g.NewField(), g.NewField()
	fills := []struct {
		name string
		at   func(n, k int) float64
	}{
		{"x ≡ 0", func(int, int) float64 { return 0 }},
		{"x ≡ 1", func(int, int) float64 { return 1 }},
		{"x = X[n]", func(n, k int) float64 { return s.hjb.X[n][k] }},
	}
	for n := 0; n <= tm.Steps; n++ {
		ctx := s.ctxs[n]
		next := n + 1
		if next > tm.Steps {
			next = tm.Steps
		}
		if err := numerics.GradientQ(g, grad, s.hjb.V[next]); err != nil {
			t.Fatal(err)
		}
		s.hjbProb.Control(n, grad, out)
		for k := range out {
			i, j := g.Coords(k)
			same("control", n, i, j, out[k], OptimalControl(p, grad[k]))
		}
		for _, f := range fills {
			for k := range x {
				x[k] = f.at(n, k)
			}
			s.hjbProb.Running(n, x, out)
			for k := range out {
				i, j := g.Coords(k)
				same("utility at "+f.name, n, i, j, out[k], ctx.Utility(x[k], g.H.At(i), g.Q.At(j)))
			}
			s.hjbProb.DriftQ(n, x, out)
			for k := range out {
				i, j := g.Coords(k)
				same("HJB q drift at "+f.name, n, i, j, out[k], ctx.QDrift(x[k]))
			}
		}
		s.fpkProb.DriftQ(n, out)
		for k := range out {
			i, j := g.Coords(k)
			same("FPK q drift", n, i, j, out[k], ctx.QDrift(s.xPath[n][k]))
		}

		// The snapshot of this level's current paths against per-node case
		// probabilities under its q̄.
		tn, lambda := tm.At(n), s.lambdaPath[n]
		snap, err := s.est.Snapshot(tn, lambda, s.xPath[n])
		if err != nil {
			t.Fatal(err)
		}
		mass, err := numerics.Integral2D(g, lambda)
		if err != nil {
			t.Fatal(err)
		}
		var case3 float64
		for i := 0; i < g.H.N; i++ {
			for j := 0; j < g.Q.N; j++ {
				cs := mec.CaseProbabilities(p, g.Q.At(j), snap.QBar)
				case3 += trapezoidWeight(i, g.H.N) * trapezoidWeight(j, g.Q.N) * lambda[g.Idx(i, j)] * cs.P3
			}
		}
		same("Case-3 fraction", n, -1, -1, snap.Case3Frac, case3*g.CellArea()/mass)
	}
}

func trapezoidWeight(k, n int) float64 {
	if k == 0 || k == n-1 {
		return 0.5
	}
	return 1
}
