package policy

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/engine"
	"repro/internal/resilience"
)

// MFGCP is the proposed framework: one mean-field equilibrium per requested
// content per epoch (Algorithm 1 line 9 calling Algorithm 2), after which
// every EDP reads its caching rate from the shared feedback strategy
// x*(t, h, q). Because the equilibrium is computed once for the generic
// player, the strategy-determination cost is independent of M — the property
// Table II demonstrates.
type MFGCP struct {
	// Share toggles paid peer sharing. MFG-CP uses true; the paper's MFG
	// baseline is the same framework with sharing removed.
	Share bool
	// TolerateNonConvergence accepts the partial equilibrium when the
	// best-response iteration hits ψ_th, instead of failing the epoch.
	TolerateNonConvergence bool
	// Workers bounds the number of per-content equilibria solved
	// concurrently during Prepare; 0 means one worker per CPU. The contents
	// of one epoch are independent, so the result is identical to the
	// sequential solve.
	Workers int
	// DisableWarmStart turns off seeding each epoch's solves with the
	// previous epoch's equilibria. Warm starting exploits the slow drift of
	// demand across epochs (Algorithm 1's assumption) and typically halves
	// the best-response iterations after the first epoch.
	DisableWarmStart bool
	// Capacity, when positive, caps the total caching space an EDP may
	// spend per epoch across all contents. The per-content equilibrium
	// strategies are then post-processed by the fractional knapsack of the
	// paper's Section IV-C Remark: contents are admitted by utility density
	// and the marginal one fractionally, and each admitted fraction scales
	// the content's caching rate.
	Capacity float64
	// CapacityPaths is the ensemble size used to estimate each content's
	// utility value for the knapsack (default 16).
	CapacityPaths int
	// Cache, when set, stores solved equilibria keyed by the canonical
	// (params, workload, grid) hash. Contents whose key hits skip the solve
	// entirely; the equilibrium is unique (Theorem 2), so a cached fixed
	// point answers regardless of how it was seeded. Install it with
	// SetEquilibriumCache so the epoch loop can share one cache across
	// policies and epochs.
	Cache *engine.Cache
	// Recovery, when set, retries diverged or non-converged solves under the
	// bounded escalation ladder (deeper damping → scheme switch → time-mesh
	// refinement) before giving up on the epoch. Install it with SetRecovery
	// so the epoch loop can configure resilience uniformly.
	Recovery *resilience.Escalation

	mfgcpStrategy // what the last Prepare or RestoreState left for trading
}

// mfgcpStrategy is one prepared epoch of MFG-CP: the per-content equilibria
// and knapsack admissions that Rate reads. Prepare and RestoreState replace
// both slices rather than writing into the ones they hold, so a copy of the
// struct taken between two Prepare calls stays valid and unchanged while the
// next one runs.
type mfgcpStrategy struct {
	equilibria []*engine.Equilibrium // per content; nil when not requested
	admit      []float64             // knapsack admission fraction per content (nil = all 1)
	k          int
}

// frozenMFGCP is the read-only strategy view Freeze returns.
type frozenMFGCP struct {
	mfgcpStrategy
	share bool
}

// SharingEnabled implements Strategy.
func (f *frozenMFGCP) SharingEnabled() bool { return f.share }

// Freeze returns a read-only view of the strategy the last Prepare (or
// RestoreState) left. Later Prepare calls do not change it, so an epoch can
// trade on it while the next epoch's Prepare runs on another goroutine.
func (p *MFGCP) Freeze() Strategy {
	return &frozenMFGCP{mfgcpStrategy: p.mfgcpStrategy, share: p.Share}
}

// NewMFGCP returns the full MFG-CP policy.
func NewMFGCP() *MFGCP { return &MFGCP{Share: true, TolerateNonConvergence: true} }

// NewMFG returns the paper's MFG baseline: MFG-CP without content sharing.
func NewMFG() *MFGCP { return &MFGCP{Share: false, TolerateNonConvergence: true} }

// Name implements Policy.
func (p *MFGCP) Name() string {
	if p.Share {
		return "MFG-CP"
	}
	return "MFG"
}

// SharingEnabled implements Policy.
func (p *MFGCP) SharingEnabled() bool { return p.Share }

// SetEquilibriumCache installs (or removes, with nil) the shared equilibrium
// cache consulted by Prepare. The simulator plumbs its per-run cache through
// this method.
func (p *MFGCP) SetEquilibriumCache(c *engine.Cache) { p.Cache = c }

// SetRecovery installs (or removes, with nil) the divergence-recovery ladder
// applied to failing solves. The simulator plumbs its configured escalation
// through this method.
func (p *MFGCP) SetRecovery(e *resilience.Escalation) { p.Recovery = e }

// Prepare solves one equilibrium per content in the epoch's caching set
// K' = {k : |I_k| > 0} (Algorithm 1 line 5).
func (p *MFGCP) Prepare(ctx *EpochContext) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	cfg := ctx.Solver
	cfg.Params = ctx.Params
	cfg.ShareEnabled = p.Share
	p.k = ctx.Params.K
	previous := p.equilibria
	p.equilibria = make([]*engine.Equilibrium, p.k)

	warmFor := func(k int) *engine.Equilibrium {
		if p.DisableWarmStart || k >= len(previous) {
			return nil
		}
		ws := previous[k]
		if ws == nil || ws.HJB == nil || ws.FPK == nil {
			return nil
		}
		// The grid is determined by (NH, NQ, Steps, Qk, fading range); a
		// mismatch (e.g. a Qk sweep between epochs) falls back to cold.
		if ws.Grid.H.N != cfg.NH || ws.Grid.Q.N != cfg.NQ || ws.Time.Steps != cfg.Steps ||
			ws.Config.Params.Qk != cfg.Params.Qk ||
			ws.Config.Params.HMin != cfg.Params.HMin || ws.Config.Params.HMax != cfg.Params.HMax {
			return nil
		}
		// Warm starting only pays when the demand drifted mildly: unwinding
		// a far-away fixed point (e.g. a content whose popularity collapsed)
		// costs more iterations than a cold start, which converges almost
		// immediately for weak demand.
		next := ctx.Workloads[k]
		if relDiff(ws.Workload.Requests, next.Requests) > 0.25 ||
			relDiff(ws.Workload.Pop, next.Pop) > 0.25 ||
			relDiff(ws.Workload.Timeliness, next.Timeliness) > 0.25 {
			return nil
		}
		return ws
	}

	// Sequential pre-pass in content order: resolve cache hits and coalesce
	// contents whose canonical key coincides (identical workload this epoch),
	// so the parallel stage solves each distinct equilibrium exactly once and
	// the cache is consulted in the same order on every run.
	type solveJob struct {
		content int // lowest content index needing this solve
		key     string
		warm    *engine.Equilibrium
	}
	var jobs []solveJob
	pending := make(map[string]int) // key → index into jobs
	alias := make(map[int]int)      // content → job index it shares
	for k := 0; k < p.k; k++ {
		if ctx.Workloads[k].Requests <= 0 {
			continue // not in K': no demand this epoch
		}
		key := engine.CacheKey(cfg, ctx.Workloads[k])
		if p.Cache != nil {
			if eq, ok := p.Cache.Get(cfg.Obs, key); ok {
				p.equilibria[k] = eq
				continue
			}
		}
		if j, dup := pending[key]; dup {
			alias[k] = j
			continue
		}
		pending[key] = len(jobs)
		jobs = append(jobs, solveJob{content: k, key: key, warm: warmFor(k)})
	}

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]*engine.Equilibrium, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	cctx := ctx.Context()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pre-allocated engine session per worker: the grid,
			// tridiagonal sweepers and value/density holders are reused
			// across every solve the worker picks up.
			s, err := engine.NewSession(cfg)
			if err != nil {
				for j := range next {
					errs[j] = fmt.Errorf("policy: %s: content %d: %w", p.Name(), jobs[j].content, err)
				}
				return
			}
			for j := range next {
				job := jobs[j]
				var eq *engine.Equilibrium
				var err error
				if p.Recovery != nil {
					// The recovery ladder reuses the worker's session for the
					// first attempt and escalates on throwaway sessions.
					eq, err = p.Recovery.Solve(cctx, s, cfg, ctx.Workloads[job.content], job.warm)
				} else {
					eq, err = s.SolveContext(cctx, ctx.Workloads[job.content], job.warm)
				}
				if err != nil && !(errors.Is(err, engine.ErrNotConverged) && p.TolerateNonConvergence && eq != nil) {
					errs[j] = fmt.Errorf("policy: %s: content %d: %w", p.Name(), job.content, err)
					continue
				}
				results[j] = eq
			}
		}()
	}
	for j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()

	// Sequential post-pass in content order: results land in slots indexed
	// by content, and fresh equilibria publish to the cache in job order, so
	// the outcome is independent of goroutine completion order. Partial
	// (non-converged but tolerated) equilibria are used for the epoch but not
	// cached, so later epochs retry them from scratch.
	for j, job := range jobs {
		if errs[j] != nil {
			return errs[j]
		}
		p.equilibria[job.content] = results[j]
		if p.Cache != nil && results[j] != nil && results[j].Converged {
			p.Cache.Put(cfg.Obs, job.key, results[j])
		}
	}
	for k, j := range alias {
		p.equilibria[k] = results[j]
	}
	return p.applyCapacity(ctx)
}

// applyCapacity derives the knapsack admission fractions when a capacity
// budget is configured (Section IV-C Remark).
func (p *MFGCP) applyCapacity(ctx *EpochContext) error {
	p.admit = nil
	if p.Capacity <= 0 {
		return nil
	}
	paths := p.CapacityPaths
	if paths <= 0 {
		paths = 16
	}
	items, err := CapacityItems(p.equilibria, ctx.Seed, paths)
	if err != nil {
		return fmt.Errorf("policy: %s: capacity items: %w", p.Name(), err)
	}
	frac, err := AllocateFractional(items, p.Capacity)
	if err != nil {
		return fmt.Errorf("policy: %s: capacity allocation: %w", p.Name(), err)
	}
	p.admit = make([]float64, p.k)
	for i, it := range items {
		p.admit[it.Content] = frac[i]
	}
	return nil
}

// Rate implements Strategy by evaluating the equilibrium feedback strategy,
// scaled by the knapsack admission fraction when a capacity budget is set.
// Contents outside K' are not cached.
func (p *mfgcpStrategy) Rate(_, k int, t, h, q float64) (float64, error) {
	if err := checkContent(k, p.k); err != nil {
		return 0, err
	}
	eq := p.equilibria[k]
	if eq == nil {
		return 0, nil
	}
	x, err := eq.HJB.ControlAt(t, h, q)
	if err != nil {
		return 0, err
	}
	if p.admit != nil {
		x *= p.admit[k]
	}
	return x, nil
}

// Admission returns the knapsack admission fraction of content k (1 when no
// capacity budget is configured).
func (p *MFGCP) Admission(k int) (float64, error) {
	if err := checkContent(k, p.k); err != nil {
		return 0, err
	}
	if p.admit == nil {
		return 1, nil
	}
	return p.admit[k], nil
}

// Equilibrium exposes the solved equilibrium of content k (nil if the content
// was not requested this epoch). The market simulator uses it for the
// mean-field price and sharing-benefit bookkeeping; the experiments use it
// for the density and strategy figures.
func (p *MFGCP) Equilibrium(k int) (*engine.Equilibrium, error) {
	if err := checkContent(k, p.k); err != nil {
		return nil, err
	}
	return p.equilibria[k], nil
}

// mfgcpState is the serialised Prepare outcome carried across process
// restarts: without it a resumed run would lose the previous epoch's
// equilibria and re-converge from cold, breaking bit-for-bit resume parity
// (warm starts change the iteration path, and iterates below Tol still differ
// in the last bits).
type mfgcpState struct {
	K        int
	Admit    []float64
	Contents []int    // content indices with a solved equilibrium
	Blobs    [][]byte // parallel to Contents, engine equilibrium archives
}

// CheckpointState serialises the policy's prepared strategy (the per-content
// equilibria and knapsack admissions) for the simulator's epoch checkpoints.
func (p *MFGCP) CheckpointState() ([]byte, error) {
	st := mfgcpState{K: p.k, Admit: append([]float64(nil), p.admit...)}
	for k, eq := range p.equilibria {
		if eq == nil {
			continue
		}
		blob, err := engine.MarshalEquilibrium(eq)
		if err != nil {
			return nil, fmt.Errorf("policy: %s: checkpoint content %d: %w", p.Name(), k, err)
		}
		st.Contents = append(st.Contents, k)
		st.Blobs = append(st.Blobs, blob)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("policy: %s: encode checkpoint state: %w", p.Name(), err)
	}
	return buf.Bytes(), nil
}

// RestoreState rebuilds the prepared strategy from a CheckpointState payload.
func (p *MFGCP) RestoreState(data []byte) error {
	var st mfgcpState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("policy: %s: decode checkpoint state: %w", p.Name(), err)
	}
	if st.K < 0 || len(st.Contents) != len(st.Blobs) {
		return fmt.Errorf("policy: %s: malformed checkpoint state (k=%d, %d contents, %d blobs)",
			p.Name(), st.K, len(st.Contents), len(st.Blobs))
	}
	equilibria := make([]*engine.Equilibrium, st.K)
	for i, k := range st.Contents {
		if k < 0 || k >= st.K {
			return fmt.Errorf("policy: %s: checkpoint content %d out of range [0,%d)", p.Name(), k, st.K)
		}
		eq, err := engine.UnmarshalEquilibrium(st.Blobs[i])
		if err != nil {
			return fmt.Errorf("policy: %s: restore content %d: %w", p.Name(), k, err)
		}
		equilibria[k] = eq
	}
	p.k = st.K
	p.equilibria = equilibria
	p.admit = nil
	if len(st.Admit) > 0 {
		p.admit = st.Admit
	}
	return nil
}

// relDiff is the relative difference |a−b| / max(|a|, |b|, ε).
func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-9 {
		return 0
	}
	return math.Abs(a-b) / den
}
