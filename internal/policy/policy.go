// Package policy defines the per-epoch caching strategies compared in the
// paper's evaluation: the proposed MFG-CP framework, its sharing-free MFG
// variant, and the Random Replacement (RR), Most Popular Caching (MPC) and
// Ultra-Dense Caching Strategy (UDCS) baselines. The paper itself
// re-implements the baselines "borrowing the basic idea" of their sources
// ([18], [27], [28]); this package does the same.
package policy

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/resilience"
)

// EpochContext carries everything a policy may need to prepare its strategy
// for one optimisation epoch: the model constants (Params.M is the number of
// EDPs whose strategies must be determined), the catalogue state (with
// popularity and timeliness already refreshed from the workload), the
// per-content workload descriptors, the MFG solver configuration, and the
// run's equilibrium cache and recovery ladder. Seed derives any per-epoch
// randomness deterministically.
type EpochContext struct {
	Params    mec.Params
	Catalog   *mec.Catalog
	Workloads []engine.Workload // indexed by content id
	Solver    engine.Config
	Epoch     int
	Seed      int64

	// Cache, when set, holds the run's solved equilibria keyed by the
	// canonical (params, workload, grid) hash. MFG policies skip the solve of
	// a content whose key hits; the equilibrium is unique (Theorem 2), so a
	// cached fixed point answers regardless of how it was seeded.
	Cache *engine.Cache
	// Recovery, when set, retries diverged or non-converged solves under the
	// bounded escalation ladder (deeper damping → scheme switch → time-mesh
	// refinement) before the epoch is declared failed.
	Recovery *resilience.Escalation

	// Ctx optionally bounds the strategy determination: MFG policies check
	// it at best-response-iteration granularity and abort Prepare promptly on
	// cancellation or deadline. Nil means context.Background().
	Ctx context.Context
}

// Context returns the epoch's cancellation context, never nil.
func (c *EpochContext) Context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Validate checks the context.
func (c *EpochContext) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Catalog == nil {
		return fmt.Errorf("policy: nil catalog")
	}
	if len(c.Workloads) != c.Params.K {
		return fmt.Errorf("policy: %d workloads for %d contents", len(c.Workloads), c.Params.K)
	}
	return nil
}

// Policy is a per-epoch caching strategy. Prepare is called once at the start
// of each epoch (this is the "strategy determination" step whose cost
// Table II compares); the Strategy it leaves is then queried for every EDP at
// every simulation step.
type Policy interface {
	// Name identifies the policy in reports ("MFG-CP", "RR", ...).
	Name() string
	// Prepare computes the epoch's strategy.
	Prepare(ctx *EpochContext) error
	Strategy
}

// Strategy is the trading half of a Policy: what the epoch's trading reads of
// the last Prepare. Rate must be cheap and side-effect free.
type Strategy interface {
	// Rate returns the caching rate x ∈ [0,1] applied by EDP edp to content
	// k at epoch-relative time t in state (h, q).
	Rate(edp, k int, t, h, q float64) (float64, error)
	// SharingEnabled reports whether the policy participates in paid peer
	// sharing (false only for the MFG baseline, which the paper defines as
	// MFG-CP without content sharing).
	SharingEnabled() bool
}

// ByName returns a fresh policy for its canonical (case-insensitive) name:
// "mfg-cp", "mfg", "rr", "mpc" or "udcs". This is the single name→policy
// mapping shared by the CLI flags, the market-config JSON codec and the
// serving daemon.
func ByName(name string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "mfg-cp", "mfgcp":
		return NewMFGCP(), nil
	case "mfg":
		return NewMFG(), nil
	case "rr":
		return NewRR(), nil
	case "mpc":
		return NewMPC(), nil
	case "udcs":
		return NewUDCS(), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (want mfg-cp, mfg, rr, mpc or udcs)", name)
}

// checkContent validates a content index against the prepared epoch.
func checkContent(k, kMax int) error {
	if k < 0 || k >= kMax {
		return fmt.Errorf("policy: content %d out of range [0,%d)", k, kMax)
	}
	return nil
}
