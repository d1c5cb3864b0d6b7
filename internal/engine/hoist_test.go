package engine

import (
	"math"
	"testing"

	"repro/internal/mec"
	"repro/internal/numerics"
	"repro/internal/pde"
)

// TestHoistedTermsBitIdentical pins the session's precomputed model terms to
// the per-node formulas they replace, bit for bit, at every node of every
// time level over a few best-response iterations with sharing on and off:
//
//   - the HJB utility against UtilityContext.Utility,
//   - both q drifts against UtilityContext.QDrift,
//   - the control against OptimalControl at the iteration's ∂qV,
//   - the snapshot's Case-3 moment and case table against CaseProbabilities
//     at every node, and the session's snapshot against Estimator.Snapshot.
//
// It also checks that the mesh indices the solvers pass equal the ones the
// coordinate lookups (nearest time level, nearest h and q node) resolved.
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
	grad := g.NewField()
	for n := 0; n <= tm.Steps; n++ {
		tn := tm.At(n)
		if k := int(tn/tm.Dt() + 0.5); k != n {
			t.Fatalf("time level %d: t = %v resolves to level %d", n, tn, k)
		}
		ctx := s.ctxs[n]
		next := n + 1
		if next > tm.Steps {
			next = tm.Steps
		}
		if err := numerics.GradientQ(g, grad, s.hjb.V[next]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.H.N; i++ {
			h := g.H.At(i)
			if g.H.NearestIndex(h) != i {
				t.Fatalf("h node %d does not resolve to itself", i)
			}
			for j := 0; j < g.Q.N; j++ {
				q := g.Q.At(j)
				if g.Q.NearestIndex(q) != j {
					t.Fatalf("q node %d does not resolve to itself", j)
				}
				nd := pde.Node{N: n, I: i, J: j, T: tn, H: h, Q: q}
				idx := g.Idx(i, j)
				for _, x := range []float64{0, s.hjb.X[n][idx], 1} {
					same("utility", n, i, j, s.hjbProb.Running(nd, x), ctx.Utility(x, h, q))
					same("HJB q drift", n, i, j, s.hjbProb.DriftQ(tn, x), ctx.QDrift(x))
				}
				same("control", n, i, j, s.hjbProb.Control(tn, h, q, grad[idx]), OptimalControl(p, grad[idx]))
				same("FPK q drift", n, i, j, s.fpkProb.DriftQ(nd), ctx.QDrift(s.xPath[n][idx]))
			}
		}

		// The snapshot of this level's current paths, with the session's
		// case table and without it, against per-node case probabilities.
		lambda, x := s.lambdaPath[n], s.xPath[n]
		withTable, err := s.est.SnapshotInto(tn, lambda, x, s.cases[n])
		if err != nil {
			t.Fatal(err)
		}
		without, err := s.est.Snapshot(tn, lambda, x)
		if err != nil {
			t.Fatal(err)
		}
		if withTable != without {
			t.Fatalf("share=%v iteration %d level %d: snapshot with the case table %+v, without %+v",
				share, iter, n, withTable, without)
		}
		mass, err := numerics.Integral2D(g, lambda)
		if err != nil {
			t.Fatal(err)
		}
		var case3 float64
		for i := 0; i < g.H.N; i++ {
			for j := 0; j < g.Q.N; j++ {
				cs := mec.CaseProbabilities(p, g.Q.At(j), withTable.QBar)
				same("case table P1", n, i, j, s.cases[n][j].P1, cs.P1)
				same("case table P2", n, i, j, s.cases[n][j].P2, cs.P2)
				same("case table P3", n, i, j, s.cases[n][j].P3, cs.P3)
				case3 += trapezoidWeight(i, g.H.N) * trapezoidWeight(j, g.Q.N) * lambda[g.Idx(i, j)] * cs.P3
			}
		}
		same("Case-3 fraction", n, -1, -1, withTable.Case3Frac, case3*g.CellArea()/mass)
	}
}

func trapezoidWeight(k, n int) float64 {
	if k == 0 || k == n-1 {
		return 0.5
	}
	return 1
}
