package policy

import (
	"runtime"
	"testing"

	"repro/internal/engine"
)

// equilibriaEqual compares two per-content equilibrium sets field by field on
// the trajectories a market run consumes: the control surface, the density
// path and the snapshot price path. Exact float64 equality is intentional —
// the solves are deterministic, so any difference is an ordering bug.
func equilibriaEqual(t *testing.T, a, b []*engine.Equilibrium) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("equilibrium counts differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		switch {
		case a[k] == nil && b[k] == nil:
			continue
		case (a[k] == nil) != (b[k] == nil):
			t.Fatalf("content %d: one run solved it, the other did not", k)
		}
		if a[k].Iterations != b[k].Iterations {
			t.Errorf("content %d: iterations %d vs %d", k, a[k].Iterations, b[k].Iterations)
		}
		for n := range a[k].HJB.X {
			for i := range a[k].HJB.X[n] {
				if a[k].HJB.X[n][i] != b[k].HJB.X[n][i] {
					t.Fatalf("content %d: X[%d][%d] differs: %g vs %g",
						k, n, i, a[k].HJB.X[n][i], b[k].HJB.X[n][i])
				}
			}
		}
		for n := range a[k].FPK.Lambda {
			for i := range a[k].FPK.Lambda[n] {
				if a[k].FPK.Lambda[n][i] != b[k].FPK.Lambda[n][i] {
					t.Fatalf("content %d: λ[%d][%d] differs: %g vs %g",
						k, n, i, a[k].FPK.Lambda[n][i], b[k].FPK.Lambda[n][i])
				}
			}
		}
		for n := range a[k].Snapshots {
			if a[k].Snapshots[n].Price != b[k].Snapshots[n].Price {
				t.Fatalf("content %d: price[%d] differs: %g vs %g",
					k, n, a[k].Snapshots[n].Price, b[k].Snapshots[n].Price)
			}
		}
	}
}

func prepared(t *testing.T, cache *engine.Cache) []*engine.Equilibrium {
	t.Helper()
	ctx := testContext(t, 10)
	ctx.Cache = cache
	p := NewMFGCP()
	if err := p.Prepare(ctx); err != nil {
		t.Fatalf("Prepare (GOMAXPROCS=%d): %v", runtime.GOMAXPROCS(0), err)
	}
	out := make([]*engine.Equilibrium, ctx.Params.K)
	for k := range out {
		eq, err := p.Equilibrium(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = eq
	}
	return out
}

// TestPrepareDeterministicAcrossRuns pins the satellite requirement: two runs
// with the same seed and context produce identical Equilibrium trajectories,
// regardless of goroutine scheduling.
func TestPrepareDeterministicAcrossRuns(t *testing.T) {
	a := prepared(t, nil)
	b := prepared(t, nil)
	equilibriaEqual(t, a, b)
}

// TestPrepareDeterministicAcrossWorkerCounts checks that Prepare's pool size,
// one worker per GOMAXPROCS, is purely a throughput knob: sequential and
// fully parallel Prepare agree bit-for-bit.
func TestPrepareDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq := prepared(t, nil)
	runtime.GOMAXPROCS(runtime.NumCPU())
	par := prepared(t, nil)
	equilibriaEqual(t, seq, par)
}

// TestPrepareCacheReuse runs Prepare twice against one shared cache: the
// second epoch must answer every content from the cache (no new solves) and
// serve the identical equilibria.
func TestPrepareCacheReuse(t *testing.T) {
	cache, err := engine.NewCache(64)
	if err != nil {
		t.Fatal(err)
	}
	first := prepared(t, cache)
	_, missesAfterFirst, _ := cache.Stats()
	second := prepared(t, cache)
	equilibriaEqual(t, first, second)
	_, misses, _ := cache.Stats()
	if misses != missesAfterFirst {
		t.Errorf("second identical epoch missed the cache %d times", misses-missesAfterFirst)
	}
	hits, _, _ := cache.Stats()
	if hits == 0 {
		t.Errorf("second identical epoch recorded no cache hits")
	}
	// The cached solve must be byte-identical to an uncached one.
	equilibriaEqual(t, prepared(t, nil), second)
}
