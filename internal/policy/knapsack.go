package policy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
)

// The paper's Remark (Section IV-C) notes that MFG-CP "can be easily extended
// to the scenario whereby the caching capacity of each EDP is less than a
// fixed threshold": after the per-content MFG solutions are obtained, the
// final caching strategy is derived by solving a knapsack problem in which
// each content carries a weight (the space its equilibrium strategy would
// consume) and a value (the utility it contributes). This file implements
// that extension: a fractional (greedy-optimal) allocator used to post-
// process the continuous caching rates, and an exact 0/1 dynamic-programming
// solver for the all-or-nothing variant, cross-checked against brute force in
// tests.

// KnapsackItem is one content in the capacity allocation.
type KnapsackItem struct {
	Content int     // content id, for reporting
	Weight  float64 // cache space the equilibrium strategy would consume
	Value   float64 // utility contribution of caching this content fully
}

// validateItems checks the common preconditions of both solvers.
func validateItems(items []KnapsackItem, capacity float64) error {
	if capacity < 0 {
		return fmt.Errorf("core: knapsack capacity must be non-negative, got %g", capacity)
	}
	for i, it := range items {
		if it.Weight < 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return fmt.Errorf("core: knapsack item %d has invalid weight %g", i, it.Weight)
		}
		if math.IsNaN(it.Value) || math.IsInf(it.Value, 0) {
			return fmt.Errorf("core: knapsack item %d has invalid value %g", i, it.Value)
		}
	}
	return nil
}

// AllocateFractional solves the continuous knapsack: contents are admitted in
// decreasing value density until the capacity is exhausted, the marginal
// content fractionally. The returned slice holds the admitted fraction of
// each item (aligned with items); the greedy solution is exactly optimal for
// the fractional problem. Items with non-positive value are never admitted.
func AllocateFractional(items []KnapsackItem, capacity float64) ([]float64, error) {
	if err := validateItems(items, capacity); err != nil {
		return nil, err
	}
	frac := make([]float64, len(items))
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		// Density comparison without dividing by a possibly-zero weight:
		// va/wa > vb/wb  ⇔  va·wb > vb·wa for positive weights; zero-weight
		// items with positive value have infinite density and come first.
		if ia.Weight == 0 || ib.Weight == 0 {
			return ia.Weight == 0 && ib.Weight != 0
		}
		return ia.Value*ib.Weight > ib.Value*ia.Weight
	})
	remaining := capacity
	for _, i := range order {
		it := items[i]
		if it.Value <= 0 {
			continue
		}
		if it.Weight == 0 {
			frac[i] = 1
			continue
		}
		if it.Weight <= remaining {
			frac[i] = 1
			remaining -= it.Weight
			continue
		}
		if remaining > 0 {
			frac[i] = remaining / it.Weight
			remaining = 0
		}
	}
	return frac, nil
}

// Allocate01 solves the 0/1 knapsack exactly by dynamic programming on a
// discretised weight axis with `resolution` buckets (the classical FPTAS-style
// weight scaling; with resolution ≥ Σweights/minWeight the solution is
// exact). It returns the admitted set as booleans aligned with items and the
// achieved total value.
func Allocate01(items []KnapsackItem, capacity float64, resolution int) ([]bool, float64, error) {
	if err := validateItems(items, capacity); err != nil {
		return nil, 0, err
	}
	if resolution < 1 {
		return nil, 0, fmt.Errorf("core: knapsack resolution must be ≥ 1, got %d", resolution)
	}
	take := make([]bool, len(items))
	if capacity == 0 || len(items) == 0 {
		// Only zero-weight positive-value items fit.
		var total float64
		for i, it := range items {
			if it.Weight == 0 && it.Value > 0 {
				take[i] = true
				total += it.Value
			}
		}
		return take, total, nil
	}
	scale := float64(resolution) / capacity
	buckets := resolution

	// weights in buckets, rounded up so the capacity is never exceeded.
	wb := make([]int, len(items))
	for i, it := range items {
		wb[i] = int(math.Ceil(it.Weight*scale - 1e-12))
	}

	best := make([]float64, buckets+1)
	choice := make([][]bool, len(items))
	for i := range choice {
		choice[i] = make([]bool, buckets+1)
	}
	for i, it := range items {
		if it.Value <= 0 {
			continue
		}
		w := wb[i]
		for c := buckets; c >= w; c-- {
			if cand := best[c-w] + it.Value; cand > best[c] {
				best[c] = cand
				choice[i][c] = true
			}
		}
	}
	// Reconstruct.
	c := buckets
	for i := len(items) - 1; i >= 0; i-- {
		if choice[i][c] {
			take[i] = true
			c -= wb[i]
		}
	}
	return take, best[buckets], nil
}

// CapacityItems derives the knapsack inputs from a set of per-content
// equilibria: the weight is the expected space the equilibrium strategy
// consumes (Qk·w1·∫E[x*]dt), and the value is the representative EDP's
// expected accumulated utility under that equilibrium. Contents without an
// equilibrium (not requested this epoch) are skipped.
func CapacityItems(equilibria []*engine.Equilibrium, seed int64, paths int) ([]KnapsackItem, error) {
	var items []KnapsackItem
	for k, eq := range equilibria {
		if eq == nil {
			continue
		}
		p := eq.Config.Params
		// Expected space consumption: integrate the population-mean control.
		var used float64
		dt := eq.Time.Dt()
		for n := 0; n < len(eq.Snapshots); n++ {
			used += p.Qk * p.W1 * eq.Snapshots[n].MeanControl * dt
		}
		roll, err := eq.EnsembleRollout(p.ChMean, p.InitMeanFrac*p.Qk, seed+int64(k), paths)
		if err != nil {
			return nil, fmt.Errorf("core: capacity items: content %d: %w", k, err)
		}
		value, _ := roll.Final()
		items = append(items, KnapsackItem{Content: k, Weight: used, Value: value})
	}
	return items, nil
}
