package policy

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/engine"
	"repro/internal/pde"
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

	mfgcpStrategy // what the last Prepare or RestoreState left for trading
}

// mfgcpStrategy is one prepared epoch of MFG-CP: the per-content equilibria,
// the control fields Rate reads them through, the knapsack admissions, and
// the sharing mode they were solved under. Prepare and RestoreState build a
// whole new value and install it only once it is complete, so a failed
// Prepare leaves the last prepared strategy in place, and a copy taken
// between two Prepare calls stays valid and unchanged while the next one
// runs.
type mfgcpStrategy struct {
	equilibria []*engine.Equilibrium // per content; nil when not requested
	fields     []*pde.ControlField   // per content, over equilibria[k].HJB; nil when not requested
	admit      []float64             // knapsack admission fraction per content (nil = all 1)
	k          int
	share      bool
}

// newMFGCPStrategy builds the control field of every solved content once,
// so the epoch's trading reads each equilibrium through values computed up
// front. An equilibrium whose control path does not fit its grid, or
// admissions that do not cover every content, are refused here rather than
// on every read.
func newMFGCPStrategy(equilibria []*engine.Equilibrium, admit []float64, k int, share bool) (mfgcpStrategy, error) {
	if admit != nil && len(admit) != k {
		return mfgcpStrategy{}, fmt.Errorf("%d admissions for %d contents", len(admit), k)
	}
	fields := make([]*pde.ControlField, len(equilibria))
	for c, eq := range equilibria {
		if eq == nil {
			continue
		}
		f, err := eq.HJB.ControlField()
		if err != nil {
			return mfgcpStrategy{}, fmt.Errorf("content %d: %w", c, err)
		}
		fields[c] = &f
	}
	return mfgcpStrategy{equilibria: equilibria, fields: fields, admit: admit, k: k, share: share}, nil
}

// SharingEnabled implements Strategy.
func (s *mfgcpStrategy) SharingEnabled() bool { return s.share }

// Freeze returns a read-only view of the strategy the last Prepare (or
// RestoreState) left. Later Prepare calls do not change it, so an epoch can
// trade on it while the next epoch's Prepare runs on another goroutine.
func (p *MFGCP) Freeze() Strategy {
	s := p.mfgcpStrategy
	return &s
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

// Prepare solves one equilibrium per content in the epoch's caching set
// K' = {k : |I_k| > 0} (Algorithm 1 line 5), through the epoch's Cache and
// Recovery ladder when the context carries them. On failure it returns the
// lowest failing content's error and keeps the strategy it had.
func (p *MFGCP) Prepare(ctx *EpochContext) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	cfg := ctx.Solver
	cfg.Params = ctx.Params
	cfg.ShareEnabled = p.Share
	previous := p.equilibria
	equilibria := make([]*engine.Equilibrium, ctx.Params.K)

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
	for k := range equilibria {
		if ctx.Workloads[k].Requests <= 0 {
			continue // not in K': no demand this epoch
		}
		key := engine.CacheKey(cfg, ctx.Workloads[k])
		if ctx.Cache != nil {
			if eq, ok := ctx.Cache.Get(cfg.Obs, key); ok {
				equilibria[k] = eq
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

	// One worker per usable CPU, the module's rule for concurrent solves, each
	// with an engine session built on its first solve: the grid, tridiagonal
	// sweepers and value/density holders are reused across every solve the
	// worker picks up. The contents of one epoch are independent, so the
	// result is identical to the sequential solve.
	workers := runtime.GOMAXPROCS(0)
	sessions := make([]*engine.Session, workers)
	results := make([]*engine.Equilibrium, len(jobs))
	cctx := ctx.Context()
	if err := engine.Each(len(jobs), workers, func(w, j int) error {
		job := jobs[j]
		var err error
		if sessions[w] == nil {
			if sessions[w], err = engine.NewSession(cfg); err != nil {
				return fmt.Errorf("policy: %s: content %d: %w", p.Name(), job.content, err)
			}
		}
		var eq *engine.Equilibrium
		if ctx.Recovery != nil {
			// The recovery ladder reuses the worker's session for the first
			// attempt and escalates on throwaway sessions.
			eq, err = ctx.Recovery.Solve(cctx, sessions[w], cfg, ctx.Workloads[job.content], job.warm)
		} else {
			eq, err = sessions[w].SolveContext(cctx, ctx.Workloads[job.content], job.warm)
		}
		if err != nil && !(errors.Is(err, engine.ErrNotConverged) && p.TolerateNonConvergence && eq != nil) {
			return fmt.Errorf("policy: %s: content %d: %w", p.Name(), job.content, err)
		}
		results[j] = eq
		return nil
	}); err != nil {
		return err
	}

	// Sequential post-pass in content order: results land in slots indexed
	// by content, and fresh equilibria publish to the cache in job order, so
	// the outcome is independent of goroutine completion order. Partial
	// (non-converged but tolerated) equilibria are used for the epoch but not
	// cached, so later epochs retry them from scratch.
	for j, job := range jobs {
		equilibria[job.content] = results[j]
		if ctx.Cache != nil && results[j] != nil && results[j].Converged {
			ctx.Cache.Put(cfg.Obs, job.key, results[j])
		}
	}
	for k, j := range alias {
		equilibria[k] = results[j]
	}
	admit, err := p.applyCapacity(equilibria, ctx.Seed)
	if err != nil {
		return err
	}
	strategy, err := newMFGCPStrategy(equilibria, admit, ctx.Params.K, p.Share)
	if err != nil {
		return fmt.Errorf("policy: %s: %w", p.Name(), err)
	}
	p.mfgcpStrategy = strategy
	return nil
}

// applyCapacity derives the knapsack admission fractions of an epoch's
// equilibria when a capacity budget is configured (Section IV-C Remark); nil
// admits every content whole.
func (p *MFGCP) applyCapacity(equilibria []*engine.Equilibrium, seed int64) ([]float64, error) {
	if p.Capacity <= 0 {
		return nil, nil
	}
	paths := p.CapacityPaths
	if paths <= 0 {
		paths = 16
	}
	items, err := CapacityItems(equilibria, seed, paths)
	if err != nil {
		return nil, fmt.Errorf("policy: %s: capacity items: %w", p.Name(), err)
	}
	frac, err := AllocateFractional(items, p.Capacity)
	if err != nil {
		return nil, fmt.Errorf("policy: %s: capacity allocation: %w", p.Name(), err)
	}
	admit := make([]float64, len(equilibria))
	for i, it := range items {
		admit[it.Content] = frac[i]
	}
	return admit, nil
}

// Rate implements Strategy by evaluating the equilibrium feedback strategy
// through the content's control field (the bits HJBSolution.ControlAt
// returns), scaled by the knapsack admission fraction when a capacity budget
// is set. Contents outside K' are not cached.
func (p *mfgcpStrategy) Rate(_, k int, t, h, q float64) (float64, error) {
	if err := checkContent(k, p.k); err != nil {
		return 0, err
	}
	f := p.fields[k]
	if f == nil {
		return 0, nil
	}
	x := f.At(t, h, q)
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
	var admit []float64
	if len(st.Admit) > 0 {
		admit = st.Admit
	}
	strategy, err := newMFGCPStrategy(equilibria, admit, st.K, p.Share)
	if err != nil {
		return fmt.Errorf("policy: %s: restore: %w", p.Name(), err)
	}
	p.mfgcpStrategy = strategy
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
