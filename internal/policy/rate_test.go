package policy

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/mec"
)

// TestRateMatchesControlAt pins the trading read of a prepared MFG-CP
// strategy, live and frozen, with and without a capacity admission: for every
// content it is the equilibrium's ControlAt times the content's admission, bit
// for bit, and 0 for a content outside K'.
func TestRateMatchesControlAt(t *testing.T) {
	ctx := testContext(t, 4)
	ctx.Workloads[3].Requests = 0 // one content outside K'
	p := ctx.Params
	rng := rand.New(rand.NewSource(35))
	var points [][3]float64
	for _, tv := range []float64{-1, 0, 0.13, 0.5 * p.Horizon, p.Horizon, 2 * p.Horizon} {
		for _, h := range []float64{p.HMin - 1, p.HMin, 0.5 * (p.HMin + p.HMax), p.HMax, p.HMax + 1} {
			for _, q := range []float64{-1, 0, 17.3, p.Qk, p.Qk + 5} {
				points = append(points, [3]float64{tv, h, q})
			}
		}
	}
	for i := 0; i < 500; i++ {
		points = append(points, [3]float64{
			1.2 * p.Horizon * rng.Float64(),
			p.HMin + (p.HMax-p.HMin)*rng.Float64(),
			1.1 * p.Qk * rng.Float64(),
		})
	}
	for _, capacity := range []float64{0, 1.5} {
		pol := NewMFGCP()
		pol.Capacity = capacity
		pol.CapacityPaths = 4
		if err := pol.Prepare(ctx); err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]Strategy{"live": pol, "frozen": pol.Freeze()} {
			for k := 0; k < p.K; k++ {
				eq, err := pol.Equilibrium(k)
				if err != nil {
					t.Fatal(err)
				}
				admit, err := pol.Admission(k)
				if err != nil {
					t.Fatal(err)
				}
				if k == 3 && eq != nil {
					t.Fatalf("content 3 has no demand but was solved")
				}
				for _, pt := range points {
					var want float64
					if eq != nil {
						x, err := eq.HJB.ControlAt(pt[0], pt[1], pt[2])
						if err != nil {
							t.Fatal(err)
						}
						want = x
						if capacity > 0 {
							want = x * admit
						}
					}
					got, err := s.Rate(0, k, pt[0], pt[1], pt[2])
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("capacity %g, %s, content %d, (t, h, q) = %v: Rate = %v, want %v",
							capacity, name, k, pt, got, want)
					}
				}
			}
		}
	}
}

// TestRestoreStateRefusesMismatchedLevels pins that a checkpoint whose
// control levels do not match its grid is refused when it is restored,
// rather than by every Rate read of the epoch it would trade.
func TestRestoreStateRefusesMismatchedLevels(t *testing.T) {
	ctx := testContext(t, 4)
	pol := NewMFGCP()
	if err := pol.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	eq, err := pol.Equilibrium(0)
	if err != nil || eq == nil {
		t.Fatalf("content 0: %v, %v", eq, err)
	}
	bad := *eq
	hjb := *eq.HJB
	hjb.Grid.Q.N++ // every level is now one row of values short
	bad.HJB = &hjb
	blob, err := engine.MarshalEquilibrium(&bad)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st := mfgcpState{K: ctx.Params.K, Contents: []int{0}, Blobs: [][]byte{blob}}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	if err := NewMFGCP().RestoreState(buf.Bytes()); err == nil {
		t.Fatal("RestoreState accepted control levels that do not match their grid")
	}
	// Admissions must cover every content too.
	buf.Reset()
	st = mfgcpState{K: ctx.Params.K, Admit: []float64{1}}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	if err := NewMFGCP().RestoreState(buf.Bytes()); err == nil {
		t.Fatal("RestoreState accepted one admission for every content")
	}
}

// BenchmarkStrategyRate times the market's trading read: one content's
// caching rate for 300 EDP states at one time, from an MFG-CP strategy
// prepared on the simulator's default 9×41×60 grid (sim.DefaultConfig). One
// op is the 300 reads.
func BenchmarkStrategyRate(b *testing.B) {
	p := mec.Default()
	catalog, err := mec.NewCatalog(p)
	if err != nil {
		b.Fatal(err)
	}
	workloads := make([]engine.Workload, p.K)
	workloads[0] = engine.Workload{Requests: 20, Pop: 0.3, Timeliness: 2}
	solver := engine.DefaultConfig(p)
	solver.NH, solver.NQ, solver.Steps = 9, 41, 60
	pol := NewMFGCP()
	if err := pol.Prepare(&EpochContext{Params: p, Catalog: catalog, Workloads: workloads, Solver: solver}); err != nil {
		b.Fatal(err)
	}
	s := pol.Freeze()
	rng := rand.New(rand.NewSource(1))
	const edps = 300
	var h, q [edps]float64
	for i := range h {
		h[i] = p.HMin + (p.HMax-p.HMin)*rng.Float64()
		q[i] = p.Qk * rng.Float64()
	}
	t := 0.37 * p.Horizon
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < edps; i++ {
			x, err := s.Rate(i, 0, t, h[i], q[i])
			if err != nil {
				b.Fatal(err)
			}
			rateSink += x
		}
	}
}

// rateSink keeps BenchmarkStrategyRate's reads live.
var rateSink float64
