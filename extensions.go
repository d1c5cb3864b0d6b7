package mfgcp

import (
	"io"

	"repro/internal/engine"
	"repro/internal/exactgame"
	"repro/internal/policy"
)

// This file exposes the two extensions beyond the paper's headline framework:
// the capacity-constrained knapsack post-processing of Section IV-C's Remark,
// and the finite-M exact game of Fig. 2 used to validate the mean-field
// approximation.

// KnapsackItem is one content in the capacity-constrained allocation: the
// cache space its equilibrium strategy would consume and the utility it
// contributes.
type KnapsackItem = policy.KnapsackItem

// AllocateFractional solves the continuous knapsack of the capacity
// extension: admitted fractions per content, greedy-optimal.
func AllocateFractional(items []KnapsackItem, capacity float64) ([]float64, error) {
	return policy.AllocateFractional(items, capacity)
}

// Allocate01 solves the 0/1 variant exactly by dynamic programming on a
// discretised weight axis.
func Allocate01(items []KnapsackItem, capacity float64, resolution int) ([]bool, float64, error) {
	return policy.Allocate01(items, capacity, resolution)
}

// CapacityItems derives knapsack inputs from solved per-content equilibria.
func CapacityItems(equilibria []*Equilibrium, seed int64, paths int) ([]KnapsackItem, error) {
	return policy.CapacityItems(equilibria, seed, paths)
}

// ExactGameConfig controls a finite-M exact-game solve (the "original game"
// MFG-CP approximates).
type ExactGameConfig = exactgame.Config

// ExactGameAgentInit is one player's initial remaining-space distribution.
type ExactGameAgentInit = exactgame.AgentInit

// ExactGameSolution is the converged finite-M best-response outcome.
type ExactGameSolution = exactgame.Solution

// DefaultExactGameConfig returns moderate settings for an M-player solve.
func DefaultExactGameConfig(p Params) ExactGameConfig { return exactgame.DefaultConfig(p) }

// SolveExactGame runs sequential best response over M heterogeneous players
// against their exact finite-M aggregates. Cost grows linearly in M — the
// complexity MFG-CP eliminates.
func SolveExactGame(cfg ExactGameConfig, w Workload, inits []ExactGameAgentInit) (*ExactGameSolution, error) {
	return exactgame.Solve(cfg, w, inits)
}

// ReadEquilibrium reads r to the end and deserialises the equilibrium written
// by Equilibrium.WriteTo, the cache format used to reuse expensive
// per-content solves across epochs and processes.
func ReadEquilibrium(r io.Reader) (*Equilibrium, error) {
	return engine.ReadEquilibrium(r)
}
