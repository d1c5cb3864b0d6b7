package surrogate

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/numerics"
)

// interpReference interpolates every series sample of tab at w with one
// numerics.InterpMultilinear call each, gathering every lattice node's value
// per call: the per-sample path Lookup's single pass must reproduce.
func interpReference(t *testing.T, tab *Table, w engine.Workload) [4][]float64 {
	t.Helper()
	axes := [][]float64{tab.Axes[0].Nodes, tab.Axes[1].Nodes, tab.Axes[2].Nodes}
	x := []float64{w.Requests, w.Pop, w.Timeliness}
	vals := make([]float64, len(tab.Nodes))
	var out [4][]float64
	for s := range out {
		out[s] = make([]float64, len(tab.Time))
		for j := range tab.Time {
			for i := range tab.Nodes {
				vals[i] = tab.Nodes[i].series()[s][j]
			}
			v, err := numerics.InterpMultilinear(axes, vals, x)
			if err != nil {
				t.Fatalf("InterpMultilinear at %+v: %v", w, err)
			}
			out[s][j] = v
		}
	}
	return out
}

// TestLookupMatchesInterpMultilinear holds every float a lookup interpolates
// to InterpMultilinear's, bit for bit, at random in-region points, at every
// lattice node and on cell faces (where corners weigh zero), on a table with
// a frozen axis and on one whose three axes all vary.
func TestLookupMatchesInterpMultilinear(t *testing.T) {
	bc := buildConfig()
	bc.Requests = AxisSpec{Min: 8, Max: 12, N: 3}
	bc.Timeliness = AxisSpec{Min: 2, Max: 3, N: 2}
	full, err := Build(context.Background(), bc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for name, tab := range map[string]*Table{"frozen Timeliness": testTable(t), "three axes": full} {
		for c, b := range tab.Bounds {
			if math.IsInf(b, 1) {
				t.Fatalf("%s: cell %d is outside the trust region", name, c)
			}
		}
		// A coordinate drawn from its axis: a random interior value, or a
		// node; a frozen axis has only its node.
		draw := func(ax Axis, onNode bool) float64 {
			if len(ax.Nodes) == 1 || onNode {
				return ax.Nodes[rng.Intn(len(ax.Nodes))]
			}
			lo, hi := ax.Nodes[0], ax.Nodes[len(ax.Nodes)-1]
			return lo + rng.Float64()*(hi-lo)
		}
		for p := 0; p < 200; p++ {
			// Mix random points with points on lattice nodes and faces.
			mask := 0
			if p%2 == 1 {
				mask = rng.Intn(8)
			}
			w := engine.Workload{
				Requests:   draw(tab.Axes[0], mask&1 != 0),
				Pop:        draw(tab.Axes[1], mask&2 != 0),
				Timeliness: draw(tab.Axes[2], mask&4 != 0),
			}
			sum, ok := tab.Lookup(tab.Config, w)
			if !ok {
				t.Fatalf("%s: in-region point %+v rejected", name, w)
			}
			want := interpReference(t, tab, w)
			got := [4][]float64{sum.Price, sum.MeanControl, sum.MeanRemaining, sum.SharerFrac}
			for s := range want {
				if len(got[s]) != len(want[s]) {
					t.Fatalf("%s at %+v: series %d has %d samples, want %d", name, w, s, len(got[s]), len(want[s]))
				}
				for j := range want[s] {
					if math.Float64bits(got[s][j]) != math.Float64bits(want[s][j]) {
						t.Fatalf("%s at %+v: series %d sample %d = %v (%#x), InterpMultilinear gives %v (%#x)",
							name, w, s, j, got[s][j], math.Float64bits(got[s][j]), want[s][j], math.Float64bits(want[s][j]))
					}
				}
			}
		}
	}
}

// lookupSink keeps BenchmarkTableLookup's result live.
var lookupSink *Summary

// BenchmarkTableLookup times one in-region lookup in a 2×2×2 default-grid
// table, the work every surrogate hit does before its answer is encoded.
func BenchmarkTableLookup(b *testing.B) {
	cfg := engine.DefaultConfig(mec.Default())
	tab, err := Build(context.Background(), BuildConfig{
		Config:     cfg,
		Requests:   AxisSpec{Min: 8, Max: 12, N: 2},
		Pop:        AxisSpec{Min: 0.2, Max: 0.4, N: 2},
		Timeliness: AxisSpec{Min: 2, Max: 3, N: 2},
		Workers:    2,
	})
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	w := engine.Workload{Requests: 10.5, Pop: 0.27, Timeliness: 2.4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, ok := tab.Lookup(cfg, w)
		if !ok {
			b.Fatal("in-region lookup rejected")
		}
		lookupSink = sum
	}
}
