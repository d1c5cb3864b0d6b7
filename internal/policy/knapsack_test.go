package policy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/mec"
)

func TestAllocateFractionalKnown(t *testing.T) {
	items := []KnapsackItem{
		{Content: 0, Weight: 10, Value: 60},  // density 6
		{Content: 1, Weight: 20, Value: 100}, // density 5
		{Content: 2, Weight: 30, Value: 120}, // density 4
	}
	frac, err := AllocateFractional(items, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Classic: take items 0 and 1 fully, 2/3 of item 2.
	want := []float64{1, 1, 2.0 / 3.0}
	for i := range want {
		if math.Abs(frac[i]-want[i]) > 1e-12 {
			t.Errorf("frac[%d] = %g, want %g", i, frac[i], want[i])
		}
	}
}

func TestAllocateFractionalEdgeCases(t *testing.T) {
	// Zero capacity admits only zero-weight items.
	frac, err := AllocateFractional([]KnapsackItem{{Weight: 0, Value: 5}, {Weight: 1, Value: 9}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frac[0] != 1 || frac[1] != 0 {
		t.Errorf("zero-capacity allocation wrong: %v", frac)
	}
	// Negative-value items are never admitted.
	frac, err = AllocateFractional([]KnapsackItem{{Weight: 1, Value: -5}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if frac[0] != 0 {
		t.Error("negative-value item admitted")
	}
	// Validation.
	if _, err := AllocateFractional([]KnapsackItem{{Weight: -1}}, 1); err == nil {
		t.Error("negative weight should be rejected")
	}
	if _, err := AllocateFractional(nil, -1); err == nil {
		t.Error("negative capacity should be rejected")
	}
	if _, err := AllocateFractional([]KnapsackItem{{Weight: 1, Value: math.NaN()}}, 1); err == nil {
		t.Error("NaN value should be rejected")
	}
}

// Property: the fractional allocation never exceeds capacity and dominates
// every 0/1 allocation in value.
func TestFractionalDominates01(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		items := make([]KnapsackItem, n)
		for i := range items {
			items[i] = KnapsackItem{
				Content: i,
				Weight:  0.5 + 9.5*rng.Float64(),
				Value:   rng.Float64() * 100,
			}
		}
		capacity := 5 + 20*rng.Float64()

		frac, err := AllocateFractional(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		var usedF, valF float64
		for i, f := range frac {
			if f < 0 || f > 1 {
				t.Fatalf("fraction %g outside [0,1]", f)
			}
			usedF += f * items[i].Weight
			valF += f * items[i].Value
		}
		if usedF > capacity+1e-9 {
			t.Fatalf("fractional overflow: used %g of %g", usedF, capacity)
		}

		take, val01, err := Allocate01(items, capacity, 4000)
		if err != nil {
			t.Fatal(err)
		}
		var used01, check float64
		for i, tk := range take {
			if tk {
				used01 += items[i].Weight
				check += items[i].Value
			}
		}
		if used01 > capacity+1e-9 {
			t.Fatalf("0/1 overflow: used %g of %g", used01, capacity)
		}
		if math.Abs(check-val01) > 1e-9 {
			t.Fatalf("reported value %g disagrees with reconstruction %g", val01, check)
		}
		if valF < val01-1e-9 {
			t.Fatalf("fractional value %g below 0/1 value %g", valF, val01)
		}
	}
}

// Property: the DP solution matches brute force on small instances.
func TestAllocate01MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		items := make([]KnapsackItem, n)
		for i := range items {
			items[i] = KnapsackItem{
				Weight: float64(1 + rng.Intn(10)),
				Value:  float64(rng.Intn(50)),
			}
		}
		capacity := float64(5 + rng.Intn(30))

		// Brute force over all subsets.
		var best float64
		for mask := 0; mask < 1<<n; mask++ {
			var w, v float64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += items[i].Weight
					v += items[i].Value
				}
			}
			if w <= capacity && v > best {
				best = v
			}
		}
		// Integer weights and capacity: resolution = capacity buckets makes
		// the scaled DP exact.
		_, got, err := Allocate01(items, capacity, int(capacity))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: DP %g vs brute force %g (items %+v, cap %g)", trial, got, best, items, capacity)
		}
	}
}

func TestAllocate01EdgeCases(t *testing.T) {
	take, total, err := Allocate01(nil, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(take) != 0 || total != 0 {
		t.Error("empty instance should be trivial")
	}
	take, total, err = Allocate01([]KnapsackItem{{Weight: 0, Value: 3}, {Weight: 2, Value: 9}}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !take[0] || take[1] || total != 3 {
		t.Errorf("zero-capacity: take=%v total=%g", take, total)
	}
	if _, _, err := Allocate01(nil, 1, 0); err == nil {
		t.Error("resolution 0 should be rejected")
	}
	if _, _, err := Allocate01([]KnapsackItem{{Weight: math.Inf(1)}}, 1, 10); err == nil {
		t.Error("infinite weight should be rejected")
	}
}

// Property (testing/quick): monotonicity — enlarging the capacity never
// reduces the fractional value.
func TestFractionalMonotoneInCapacity(t *testing.T) {
	items := []KnapsackItem{
		{Weight: 3, Value: 10}, {Weight: 5, Value: 9}, {Weight: 2, Value: 4}, {Weight: 7, Value: 20},
	}
	value := func(capacity float64) float64 {
		frac, err := AllocateFractional(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		var v float64
		for i, f := range frac {
			v += f * items[i].Value
		}
		return v
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		ca := math.Mod(math.Abs(a), 20)
		cb := math.Mod(math.Abs(b), 20)
		lo, hi := math.Min(ca, cb), math.Max(ca, cb)
		return value(lo) <= value(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCapacityItemsFromEquilibria(t *testing.T) {
	cfg := engine.DefaultConfig(mec.Default())
	cfg.NH, cfg.NQ, cfg.Steps = 7, 41, 60
	eq, err := engine.Solve(cfg, engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	items, err := CapacityItems([]*engine.Equilibrium{eq, nil, eq}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("expected 2 items (nil skipped), got %d", len(items))
	}
	if items[0].Content != 0 || items[1].Content != 2 {
		t.Errorf("content ids wrong: %+v", items)
	}
	for _, it := range items {
		if it.Weight <= 0 {
			t.Errorf("content %d: expected positive space consumption, got %g", it.Content, it.Weight)
		}
		if math.IsNaN(it.Value) {
			t.Errorf("content %d: NaN value", it.Content)
		}
	}
}
