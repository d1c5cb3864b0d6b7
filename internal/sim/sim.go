// Package sim is the agent-based MEC market simulator implementing
// Algorithm 1 of the paper: M EDP agents with stochastic channel and cache
// dynamics serve per-epoch content requests, set prices under the
// supply–demand rule (Eq. 5), trade with requesters under the three service
// cases, and settle paid peer sharing. The caching strategy of each EDP is
// supplied by a policy (MFG-CP or one of the baselines).
//
// Beyond regenerating the paper's comparison figures, the simulator
// cross-validates the mean-field approximation: the empirical distribution of
// the EDPs' remaining cache space is compared against the FPK density of the
// solved equilibrium.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sde"
	"repro/internal/trace"
)

// Config parametrises one market run.
type Config struct {
	Params mec.Params
	Policy policy.Policy `json:"-"` // travels in JSON by name (MarshalJSON)
	Solver engine.Config // passed to MFG policies via the epoch context

	Epochs        int
	StepsPerEpoch int
	// RequestsPerEDP is the mean number of content requests arriving at one
	// EDP per epoch, split across contents by the trace's view shares.
	RequestsPerEDP float64
	Seed           int64

	// Trace supplies the demand process; when nil a default synthetic trace
	// is generated from Seed.
	Trace *trace.Dataset `json:"-"`

	// HeterogeneousDemand adds per-EDP Poisson noise to the request counts.
	// The default (false) gives every EDP the epoch's mean demand, matching
	// the homogeneity assumption of the mean-field model — required by the
	// FPK cross-validation test.
	HeterogeneousDemand bool

	// Requesters enables the requester-level demand model of the paper's
	// Section II: J mobile requesters associated with their nearest EDP,
	// issuing requests routed through the association map and declaring
	// per-request timeliness requirements (Definition 2). When J > 0 this
	// supersedes HeterogeneousDemand and RequestsPerEDP.
	Requesters RequesterConfig

	// ExactInterference computes each EDP's transmission rate from the
	// pairwise SINR with its actual neighbours (Eq. 2) instead of the
	// mean-field interference approximation. Kept as an ablation.
	ExactInterference bool

	// EqCacheSize, when positive, bounds the run's equilibrium cache, which
	// every epoch's context carries to the policy (EpochContext.Cache) and
	// checkpoints hold. Epochs whose (params, workload) repeat then reuse the
	// solved equilibrium instead of re-running Algorithm 2, which
	// trace-driven demand with recurring daily shares hits often.
	EqCacheSize int

	// Area is the side length of the square deployment region.
	Area float64

	// Obs receives market telemetry — per-epoch spans, service-case counters
	// (local hit / peer share / cloud fetch), trading income and cache
	// occupancy gauges ("sim.*" names). Nil means no-op. When the solver
	// config carries no recorder of its own it inherits this one, so one
	// injection instruments the whole Algorithm-1 pipeline.
	Obs obs.Recorder `json:"-"`

	// Faults, when set, injects deterministic seeded faults (EDP churn,
	// dropped peer shares, forced solver failures) and switches the epoch
	// loop from abort-on-error to graceful degradation under the plan's
	// error budget.
	Faults *FaultPlan `json:",omitempty"`

	// Recovery, when set, travels to the policy in every epoch's context
	// (EpochContext.Recovery): failing equilibrium solves are retried under
	// the bounded escalation ladder before the epoch is declared failed.
	Recovery *resilience.Escalation `json:",omitempty"`

	// Checkpoint configures epoch-boundary snapshots and resume (zero value
	// disables both).
	Checkpoint CheckpointConfig

	// Context, when set, bounds the run with cancellation or a deadline
	// alongside RunContext's argument: the run stops when either ends. The
	// epoch loop checks it at step granularity and the solver at iteration
	// granularity.
	Context context.Context `json:"-"`
}

// DefaultConfig returns the simulation settings used by the experiments.
func DefaultConfig(p mec.Params, pol policy.Policy) Config {
	solver := engine.DefaultConfig(p)
	solver.NH = 9
	solver.NQ = 41
	solver.Steps = 60
	return Config{
		Params:         p,
		Policy:         pol,
		Solver:         solver,
		Epochs:         3,
		StepsPerEpoch:  40,
		RequestsPerEDP: 30,
		Seed:           1,
		Area:           100,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Policy == nil {
		return fmt.Errorf("sim: nil policy")
	}
	if c.Epochs < 1 {
		return fmt.Errorf("sim: Epochs must be ≥ 1, got %d", c.Epochs)
	}
	if c.StepsPerEpoch < 1 {
		return fmt.Errorf("sim: StepsPerEpoch must be ≥ 1, got %d", c.StepsPerEpoch)
	}
	// NaN compares false against every bound, so "x < 0" guards alone would
	// wave NaN configurations through into the epoch loop; reject non-finite
	// rates and geometry explicitly (mirroring the mec.Params checks).
	if math.IsNaN(c.RequestsPerEDP) || math.IsInf(c.RequestsPerEDP, 0) || c.RequestsPerEDP < 0 {
		return fmt.Errorf("sim: RequestsPerEDP must be non-negative and finite, got %g", c.RequestsPerEDP)
	}
	if math.IsNaN(c.Area) || math.IsInf(c.Area, 0) || !(c.Area > 0) {
		return fmt.Errorf("sim: Area must be positive and finite, got %g", c.Area)
	}
	if err := c.Requesters.Validate(); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.Recovery != nil {
		if err := c.Recovery.Validate(); err != nil {
			return err
		}
	}
	return c.Checkpoint.Validate()
}

// Ledger accumulates the economic account of one EDP over the whole run.
// Utility = Trading + Sharing − Placement − Staleness − ShareCost.
type Ledger struct {
	Trading   float64
	Sharing   float64
	Placement float64
	Staleness float64
	ShareCost float64
}

// Utility returns the net profit of the ledger.
func (l Ledger) Utility() float64 {
	return l.Trading + l.Sharing - l.Placement - l.Staleness - l.ShareCost
}

func (l *Ledger) add(o Ledger) {
	l.Trading += o.Trading
	l.Sharing += o.Sharing
	l.Placement += o.Placement
	l.Staleness += o.Staleness
	l.ShareCost += o.ShareCost
}

// EpochStats aggregates one epoch across the population.
type EpochStats struct {
	Epoch        int
	MeanUtility  float64 // per-EDP utility accumulated during the epoch
	MeanTrading  float64
	MeanSharing  float64
	MeanStale    float64
	MeanPrice    float64 // population-and-time average trading price
	MeanRate     float64 // population-and-time average caching rate
	MeanRemain   float64 // population average remaining space (end of epoch)
	StrategyTime time.Duration
}

// Result is the outcome of a market run.
type Result struct {
	PolicyName string
	M          int
	Epochs     int

	Ledgers []Ledger // per EDP, whole run
	Stats   []EpochStats

	// StrategyTime is the total strategy-determination time across epochs
	// (the quantity Table II compares across policies and M).
	StrategyTime time.Duration

	// FinalQ[i][k] is EDP i's remaining space for content k at the end.
	FinalQ [][]float64
	// FinalH[i] is EDP i's final channel fading coefficient.
	FinalH []float64
}

// MeanUtility returns the population-average accumulated utility.
func (r *Result) MeanUtility() float64 {
	var s float64
	for _, l := range r.Ledgers {
		s += l.Utility()
	}
	return s / float64(len(r.Ledgers))
}

// MeanLedger returns the population-average ledger.
func (r *Result) MeanLedger() Ledger {
	var sum Ledger
	for _, l := range r.Ledgers {
		sum.add(l)
	}
	m := float64(len(r.Ledgers))
	return Ledger{
		Trading:   sum.Trading / m,
		Sharing:   sum.Sharing / m,
		Placement: sum.Placement / m,
		Staleness: sum.Staleness / m,
		ShareCost: sum.ShareCost / m,
	}
}

// EmpiricalQDensity histograms the final remaining space of content k across
// the population into bins cells over [0, Qk], normalised to unit integral.
func (r *Result) EmpiricalQDensity(k, bins int, qk float64) ([]float64, error) {
	if len(r.FinalQ) == 0 {
		return nil, fmt.Errorf("sim: empty result")
	}
	if k < 0 || k >= len(r.FinalQ[0]) {
		return nil, fmt.Errorf("sim: content %d out of range", k)
	}
	h, err := numerics.NewHistogram(0, qk, bins)
	if err != nil {
		return nil, err
	}
	for i := range r.FinalQ {
		h.Add(r.FinalQ[i][k])
	}
	return h.Density(), nil
}

// edp is one agent.
type edp struct {
	id   int
	x, y float64
	h    float64
	q    []float64
}

// ErrInterrupted wraps the context error when a run is cancelled or times
// out mid-flight. The partial Result accumulated so far is returned alongside
// it, and — when checkpointing is configured — the last epoch-boundary
// snapshot is already on disk, so the run can resume where it left off.
var ErrInterrupted = errors.New("sim: run interrupted")

// Run executes the market simulation under Config.Context (or no deadline
// when it is nil).
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the market simulation under ctx and cfg.Context, until
// either ends: cancellation and deadlines are honoured at simulation-step
// granularity (and forwarded to the strategy-determination solves at
// best-response-iteration granularity). On interruption the partial Result is
// returned with ErrInterrupted, wrapping the cause of the context that ended.
//
// When the next epoch's workloads are known before an epoch trades — the
// policy can freeze its strategy (see strategyFreezer) and demand is not
// requester-level — the epoch trades on a frozen view of its strategy while
// the next epoch's Prepare runs on its own goroutine. The results are those
// of running the epochs one after another, bit for bit, and RunContext never
// returns while a Prepare it started is running.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Context != nil {
		// AfterFunc cancels on its own goroutine; a Context that has already
		// ended is checked here, so the run stops before its first epoch.
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		stop := context.AfterFunc(cfg.Context, func() { cancel(context.Cause(cfg.Context)) })
		defer stop()
		if cfg.Context.Err() != nil {
			cancel(context.Cause(cfg.Context))
		}
	}
	rec := obs.OrNop(cfg.Obs)
	if cfg.Solver.Obs == nil {
		cfg.Solver.Obs = cfg.Obs
	}
	var eqCache *engine.Cache
	if cfg.EqCacheSize > 0 {
		var err error
		if eqCache, err = engine.NewCache(cfg.EqCacheSize); err != nil {
			return nil, err
		}
	}
	p := cfg.Params
	channel, err := mec.NewChannelModel(p)
	if err != nil {
		return nil, err
	}
	catalog, err := mec.NewCatalog(p)
	if err != nil {
		return nil, err
	}
	ds := cfg.Trace
	if ds == nil {
		gen := trace.DefaultGenConfig()
		gen.K = p.K
		gen.Seed = cfg.Seed
		ds, err = trace.Generate(gen)
		if err != nil {
			return nil, err
		}
	}
	if ds.K != p.K {
		return nil, fmt.Errorf("sim: trace has %d categories, params expect %d", ds.K, p.K)
	}
	timeliness := ds.Timeliness(p.LMax)

	// Population initialisation. The draw-counting source makes the stream
	// position checkpointable: a resumed run re-seeds and skips the recorded
	// number of draws, reproducing the stream bit-exactly.
	src := sde.NewCountingSource(cfg.Seed)
	rng := rand.New(src)
	ou := channel.OU()
	sdH := math.Sqrt(ou.StationaryVar())
	agents := make([]edp, p.M)
	for i := range agents {
		a := &agents[i]
		a.id = i
		a.x = rng.Float64() * cfg.Area
		a.y = rng.Float64() * cfg.Area
		a.h = sde.ReflectInto(p.ChMean+sdH*rng.NormFloat64(), p.HMin, p.HMax)
		a.q = make([]float64, p.K)
		for k := range a.q {
			a.q[k] = sde.ReflectInto(p.InitMeanFrac*p.Qk+p.InitStdFrac*p.Qk*rng.NormFloat64(), 0, p.Qk)
		}
	}

	res := &Result{
		PolicyName: cfg.Policy.Name(),
		M:          p.M,
		Epochs:     cfg.Epochs,
		Ledgers:    make([]Ledger, p.M),
	}
	dt := p.Horizon / float64(cfg.StepsPerEpoch)
	sqDt := math.Sqrt(dt)
	alphaQ := p.AlphaQ()

	var requesters *requesterPopulation
	if cfg.Requesters.J > 0 {
		requesters = newRequesterPopulation(cfg.Requesters, cfg.Area, ou, p.HMin, p.HMax, rng)
	}

	// --- Resume from an epoch-boundary snapshot, if one exists.
	startEpoch := 0
	prepared := false   // has any epoch successfully prepared a strategy?
	degradedEpochs := 0 // fault error budget consumed
	if cfg.Checkpoint.Resume {
		ck, err := LoadCheckpoint(cfg.Checkpoint.Dir)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// No snapshot yet: a resume-requested run starts fresh.
		case err != nil:
			return nil, err
		default:
			if err := ck.matches(&cfg); err != nil {
				return nil, err
			}
			if err := restoreRun(ck, &cfg, agents, requesters, res, eqCache); err != nil {
				return nil, err
			}
			src = sde.NewCountingSource(cfg.Seed)
			src.Skip(ck.RNGDraws)
			rng = rand.New(src)
			startEpoch = ck.NextEpoch
			prepared = ck.Prepared
			degradedEpochs = ck.DegradedEpochs
			rec.Add("sim.checkpoint.resumes", 1)
			rec.Event("sim.resumed", slog.Int("next_epoch", startEpoch))
		}
	}

	finish := func() {
		res.FinalQ = make([][]float64, p.M)
		res.FinalH = make([]float64, p.M)
		for i := range agents {
			res.FinalQ[i] = append([]float64(nil), agents[i].q...)
			res.FinalH[i] = agents[i].h
		}
	}
	interrupted := func(epoch, step int) (*Result, error) {
		finish()
		rec.Add("sim.interrupted", 1)
		return res, fmt.Errorf("%w at epoch %d step %d: %w", ErrInterrupted, epoch, step, context.Cause(ctx))
	}

	var fallback policy.Policy // lazily built RR baseline for degraded epochs

	// plan computes an epoch's demand and workloads (Algorithm 1, lines 4–5
	// and 8), refreshes the catalogue, and realises the epoch's fault
	// schedule (deterministic from the plan seed, independent of the
	// simulation stream). Requester-level demand draws from the simulation
	// stream, so it is planned at the epoch's start; otherwise planning draws
	// nothing, and the per-EDP draws of HeterogeneousDemand are left to the
	// epoch's start, where they keep their place in the stream.
	plan := func(epoch int) (*epochPlan, error) {
		shares, err := ds.DayShares(epoch % ds.Days)
		if err != nil {
			return nil, err
		}
		pl := &epochPlan{
			meanReqs:   make([]float64, p.K),
			timeliness: append([]float64(nil), timeliness...),
		}
		if requesters != nil {
			// Requester-level demand: mobility, nearest-EDP association,
			// per-request content draws and timeliness declarations.
			requesters.move(rng)
			pl.reqs, pl.reqTimeliness = requesters.demand(agents, shares, timeliness, p.LMax, rng)
			for k := 0; k < p.K; k++ {
				var total, lSum float64
				for i := 0; i < p.M; i++ {
					total += pl.reqs[i][k]
					lSum += pl.reqs[i][k] * pl.reqTimeliness[i][k]
				}
				pl.meanReqs[k] = total / float64(p.M)
				if total > 0 {
					pl.timeliness[k] = lSum / total
				}
			}
		} else {
			for k := range pl.meanReqs {
				pl.meanReqs[k] = cfg.RequestsPerEDP * shares[k]
			}
		}
		if err := catalog.UpdatePopularity(pl.meanReqs); err != nil {
			return nil, err
		}
		pl.workloads = make([]engine.Workload, p.K)
		for k := range pl.workloads {
			pl.workloads[k] = engine.Workload{
				Requests:   pl.meanReqs[k],
				Pop:        catalog.Contents[k].Pop,
				Timeliness: pl.timeliness[k],
			}
		}
		if cfg.Faults != nil {
			pl.faults = cfg.Faults.epochFaults(epoch, p.M, cfg.StepsPerEpoch)
		}
		pl.ctx = &policy.EpochContext{
			Params:    p,
			Catalog:   catalog,
			Workloads: pl.workloads,
			Solver:    cfg.Solver,
			Epoch:     epoch,
			Seed:      cfg.Seed,
			Cache:     eqCache,
			Recovery:  cfg.Recovery,
			Ctx:       ctx,
		}
		return pl, nil
	}

	// Epoch overlap: an epoch trades on a frozen view of its strategy while
	// the next epoch's Prepare runs on its own goroutine. That needs the next
	// epoch's workloads before this epoch trades, so the simulator overlaps
	// when the policy can freeze its strategy and demand is not
	// requester-level. next is the next epoch's plan, with its Prepare
	// running when it overlaps; a run never returns while one is pending.
	freezer, _ := cfg.Policy.(strategyFreezer)
	overlap := freezer != nil && requesters == nil
	var next *epochPlan
	defer func() {
		if next != nil && next.prep != nil {
			next.prep.wait()
		}
	}()
	tradeEnd := time.Now() // when the previous epoch's trading ended, or the run began

	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		if ctx.Err() != nil {
			return interrupted(epoch, 0)
		}
		epochSpan := rec.Start("sim.epoch")
		pl := next
		next = nil
		if pl == nil {
			if pl, err = plan(epoch); err != nil {
				return nil, err
			}
		}
		workloads, ef := pl.workloads, pl.faults
		if ef != nil && ef.churned > 0 {
			rec.Add("sim.fault.churned_edps", float64(ef.churned))
		}

		// --- Strategy determination (Algorithm 1 line 9 / Table II timing).
		// Under a fault plan a failed (or fault-forced-to-fail) solve degrades
		// the epoch — reusing the last prepared strategy, or the RR baseline
		// when no epoch ever prepared — instead of aborting the run. A Prepare
		// that ran ahead is timed on its own goroutine.
		var strategy policy.Strategy // nil until the epoch falls back to RR
		degraded := false
		start := time.Now()
		var ahead time.Duration // strategy time spent before this epoch's start
		ready := start          // when the epoch's strategy was ready
		if ef != nil && ef.solverFail {
			rec.Add("sim.fault.solver_forced", 1)
			degraded = true
		} else {
			var err error
			if pl.prep != nil {
				ahead, err = pl.prep.wait()
				start, ready = time.Now(), pl.prep.end
				rec.Add("sim.epochs.overlapped", 1)
			} else {
				err = cfg.Policy.Prepare(pl.ctx)
				ready = time.Now()
			}
			if err != nil {
				if ctx.Err() != nil {
					return interrupted(epoch, 0)
				}
				if cfg.Faults == nil {
					return nil, fmt.Errorf("sim: epoch %d: %w", epoch, err)
				}
				rec.Add("sim.fault.solver_errors", 1)
				rec.Event("sim.degraded", slog.Int("epoch", epoch), slog.String("cause", err.Error()))
				degraded = true
			} else {
				prepared = true
			}
		}
		if degraded {
			degradedEpochs++
			rec.Add("resilience.fallbacks", 1)
			rec.Add("sim.fault.degraded_epochs", 1)
			if cfg.Faults != nil && cfg.Faults.ErrorBudget > 0 && degradedEpochs > cfg.Faults.ErrorBudget {
				return nil, fmt.Errorf("sim: epoch %d: %w (%d degraded epochs, budget %d)",
					epoch, ErrBudgetExceeded, degradedEpochs, cfg.Faults.ErrorBudget)
			}
			if !prepared {
				// No strategy has ever been prepared, so there is nothing
				// stale to fall back on: degrade to the RR baseline.
				if fallback == nil {
					fallback = policy.NewRR()
				}
				if err := fallback.Prepare(pl.ctx); err != nil {
					return nil, fmt.Errorf("sim: epoch %d: fallback: %w", epoch, err)
				}
				strategy = fallback
				ready = time.Now()
			}
		}
		prepTime := ahead + time.Since(start)
		res.StrategyTime += prepTime
		wait := ready.Sub(tradeEnd)
		if wait < 0 {
			wait = 0 // the Prepare finished before the previous epoch's trading did
		}
		rec.Observe("sim.strategy.wait.seconds", wait.Seconds())

		// The epoch trades on a frozen view of its strategy, and a checkpoint
		// of the epoch holds the policy and equilibrium cache as they are
		// now: both must be taken before the next epoch's Prepare starts.
		if strategy == nil {
			strategy = cfg.Policy
			if freezer != nil {
				strategy = freezer.Freeze()
			}
		}
		every := cfg.Checkpoint.Every
		if every < 1 {
			every = 1
		}
		var held *heldState
		if cfg.Checkpoint.Dir != "" && ((epoch+1)%every == 0 || epoch == cfg.Epochs-1) {
			if held, err = holdState(&cfg, eqCache); err != nil {
				return nil, fmt.Errorf("sim: epoch %d: %w", epoch, err)
			}
		}
		if overlap && epoch+1 < cfg.Epochs {
			// A planning error resurfaces when the next epoch plans itself.
			if next, err = plan(epoch + 1); err != nil {
				next = nil
			} else if next.faults == nil || !next.faults.solverFail {
				next.prep = startPrepare(cfg.Policy, next.ctx)
			}
		}

		// Per-EDP request counts; HeterogeneousDemand's Poisson noise draws
		// from the simulation stream here, at the epoch's start.
		reqs, reqTimeliness := pl.reqs, pl.reqTimeliness
		if reqs == nil {
			reqs = make([][]float64, p.M)
			for i := range reqs {
				reqs[i] = make([]float64, p.K)
				for k := range reqs[i] {
					if cfg.HeterogeneousDemand {
						lam := pl.meanReqs[k]
						noisy := lam + math.Sqrt(math.Max(lam, 0))*rng.NormFloat64()
						reqs[i][k] = math.Max(0, math.Round(noisy))
					} else {
						reqs[i][k] = pl.meanReqs[k]
					}
				}
			}
		}

		// --- Trading and state evolution (Algorithm 1 lines 10–14).
		es := EpochStats{Epoch: epoch, StrategyTime: prepTime}
		var priceAcc, rateAcc float64
		var priceN int
		epochLedgers := make([]Ledger, p.M)
		xs := make([]float64, p.M)    // caching rates of one content this step
		rates := make([]float64, p.M) // transmission rates of the active EDPs this step
		var tally serviceTally

		// The strategy's sharing mode and ξ^L of the Eq. 4 cache drift are
		// fixed for the epoch: ξ^L per content, or per EDP and content when
		// requesters declare their own timeliness.
		sharing := strategy.SharingEnabled()
		xiPow := make([]float64, p.K)
		for k := range xiPow {
			xiPow[k] = math.Pow(p.Xi, workloads[k].Timeliness)
		}
		var reqXiPow [][]float64
		if reqTimeliness != nil {
			reqXiPow = make([][]float64, p.M)
			for i := range reqXiPow {
				reqXiPow[i] = make([]float64, p.K)
				for k := range reqXiPow[i] {
					reqXiPow[i][k] = math.Pow(p.Xi, reqTimeliness[i][k])
				}
			}
		}

		for s := 0; s < cfg.StepsPerEpoch; s++ {
			if ctx.Err() != nil {
				return interrupted(epoch, s)
			}
			t := float64(s) * dt
			// Per-link fading and the per-EDP mean reciprocal rate that the
			// Eq. 9 staleness sum needs, when the requester level is on.
			var invRates []float64
			if requesters != nil {
				requesters.stepFading(ou, p.HMin, p.HMax, dt, rng)
				invRates = requesters.meanInvRate(channel, agents)
			}
			// Channels move only at the end of the step, so each active EDP's
			// transmission rate is fixed across the step's contents.
			for i := range agents {
				if ef != nil && !ef.active(i, s) {
					continue
				}
				if invRates != nil {
					rates[i] = 1 / invRates[i]
				} else {
					rates[i] = transmissionRate(channel, agents, i, cfg.ExactInterference)
				}
			}
			for k := 0; k < p.K; k++ {
				if workloads[k].Requests <= 0 {
					continue
				}
				// Collect rates and their sum for the Eq. (5) price. Churned
				// (absent) EDPs contribute a zero rate to the supply term.
				var sumX float64
				for i := range agents {
					if ef != nil && !ef.active(i, s) {
						xs[i] = 0
						continue
					}
					x, err := strategy.Rate(i, k, t, agents[i].h, agents[i].q[k])
					if err != nil {
						tally.flush(rec)
						return nil, fmt.Errorf("sim: epoch %d step %d: %w", epoch, s, err)
					}
					xs[i] = x
					sumX += x
				}
				for i := range agents {
					if ef != nil && !ef.active(i, s) {
						continue // absent EDPs neither trade nor evolve
					}
					a := &agents[i]
					x := xs[i]
					// Price (Eq. 5).
					var price float64
					if p.M == 1 {
						price = p.PHat
					} else {
						price = p.PHat - p.Eta1*p.Qk*(sumX-x)/float64(p.M-1)
						if price < 0 {
							price = 0
						}
					}
					priceAcc += price
					rateAcc += x
					priceN++

					// Service case: own hit, else probe a peer.
					led := &epochLedgers[i]
					r := reqs[i][k]
					rate := rates[i]
					tally.served += r * dt
					switch {
					case a.q[k] <= alphaQ: // Case 1: sell own cache
						tally.local++
						led.Trading += r * price * (p.Qk - a.q[k]) * dt
						led.Staleness += p.Eta2 * r * (p.Qk - a.q[k]) / rate * dt
					default:
						j := peerIndex(rng, p.M, i)
						peer := &agents[j]
						peerQualified := sharing && peer.q[k] <= alphaQ &&
							(ef == nil || ef.active(j, s))
						if peerQualified && ef != nil && ef.dropShare() {
							// The share transaction is dropped on the wire: the
							// buyer degrades to the cloud-fetch service case.
							rec.Add("sim.fault.shares_dropped", 1)
							peerQualified = false
						}
						if peerQualified {
							// Case 2: buy the gap from the peer, sell on.
							tally.peer++
							led.Trading += r * price * (p.Qk - peer.q[k]) * dt
							led.Staleness += p.Eta2 * r * (p.Qk - peer.q[k]) / rate * dt
							pay := p.SharePrice * (a.q[k] - peer.q[k]) * dt
							if pay > 0 {
								led.ShareCost += pay
								epochLedgers[j].Sharing += pay
							}
						} else {
							// Case 3: fetch the uncached part from the centre.
							tally.cloud++
							led.Trading += r * price * p.Qk * dt
							led.Staleness += p.Eta2 * r * (a.q[k]/p.HubRate + p.Qk/rate) * dt
						}
					}
					// Placement cost and download-from-centre delay (Eq. 8, 9).
					led.Placement += (p.W4*x + p.W5*x*x) * dt
					led.Staleness += p.Eta2 * p.Qk * x / p.HubRate * dt

					// Cache dynamics (Eq. 4), with the EDP's own requesters'
					// declared timeliness when the requester level is on.
					xiL := xiPow[k]
					if reqXiPow != nil {
						xiL = reqXiPow[i][k]
					}
					drift := p.Qk * (-p.W1*x - p.W2*workloads[k].Pop + p.W3*xiL)
					a.q[k] = sde.ReflectInto(a.q[k]+drift*dt+p.SigmaQ*sqDt*rng.NormFloat64(), 0, p.Qk)
				}
			}
			// Channel dynamics (Eq. 1) once per step per EDP. Absent EDPs'
			// channels are frozen (their draw is skipped, which is what makes
			// the fault stream independent of the simulation stream matter).
			for i := range agents {
				if ef != nil && !ef.active(i, s) {
					continue
				}
				a := &agents[i]
				a.h = sde.ReflectInto(a.h+ou.Drift(t, a.h)*dt+ou.Diffusion(t, a.h)*sqDt*rng.NormFloat64(), p.HMin, p.HMax)
			}
			tally.flush(rec)
		}
		tradeEnd = time.Now()

		// Epoch aggregation.
		var remain float64
		for i := range agents {
			res.Ledgers[i].add(epochLedgers[i])
			es.MeanUtility += epochLedgers[i].Utility()
			es.MeanTrading += epochLedgers[i].Trading
			es.MeanSharing += epochLedgers[i].Sharing
			es.MeanStale += epochLedgers[i].Staleness
			for k := range agents[i].q {
				remain += agents[i].q[k]
			}
		}
		m := float64(p.M)
		es.MeanUtility /= m
		es.MeanTrading /= m
		es.MeanSharing /= m
		es.MeanStale /= m
		es.MeanRemain = remain / (m * float64(p.K))
		if priceN > 0 {
			es.MeanPrice = priceAcc / float64(priceN)
			es.MeanRate = rateAcc / float64(priceN)
		}
		res.Stats = append(res.Stats, es)

		rec.Add("sim.epochs", 1)
		rec.Add("sim.trading.income", es.MeanTrading*m)
		rec.Add("sim.sharing.income", es.MeanSharing*m)
		rec.Gauge("sim.cache.mean_remaining", es.MeanRemain)
		rec.Gauge("sim.price.mean", es.MeanPrice)
		epochSpan.End(
			slog.Int("epoch", epoch),
			slog.String("policy", res.PolicyName),
			slog.Float64("mean_utility", es.MeanUtility),
			slog.Float64("mean_price", es.MeanPrice),
			slog.Float64("mean_remaining", es.MeanRemain),
			slog.Duration("strategy_time", prepTime),
			slog.Duration("strategy_wait", wait),
			slog.Bool("overlapped", pl.prep != nil))

		// --- Epoch-boundary snapshot.
		if held != nil {
			ck := snapshotRun(&cfg, agents, requesters, res, held, epoch+1, src.Draws(), prepared, degradedEpochs)
			if err := WriteCheckpoint(cfg.Checkpoint.Dir, ck); err != nil {
				return nil, fmt.Errorf("sim: epoch %d: %w", epoch, err)
			}
			rec.Add("sim.checkpoint.writes", 1)
		}
	}

	finish()
	return res, nil
}

// epochPlan is what one epoch needs before it trades: its demand, the
// workloads and EpochContext its strategy determination reads, its fault
// schedule, and — when it runs ahead of the epoch — its Prepare.
type epochPlan struct {
	meanReqs   []float64 // mean per-EDP request count per content
	timeliness []float64 // declared timeliness per content
	// reqs and reqTimeliness are the per-EDP, per-content request counts and
	// declared timeliness of requester-level demand; nil otherwise.
	reqs, reqTimeliness [][]float64
	workloads           []engine.Workload
	faults              *epochFaults // nil without a fault plan
	ctx                 *policy.EpochContext
	prep                *prepareCall // the epoch's Prepare when it runs ahead; nil otherwise
}

// prepareCall is a Policy.Prepare running on its own goroutine.
type prepareCall struct {
	done chan struct{}
	err  error
	took time.Duration // wall time of the Prepare call
	end  time.Time     // when it returned
}

// startPrepare runs pol.Prepare(pctx) on a new goroutine and times it there.
func startPrepare(pol policy.Policy, pctx *policy.EpochContext) *prepareCall {
	c := &prepareCall{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		start := time.Now()
		c.err = pol.Prepare(pctx)
		c.end = time.Now()
		c.took = c.end.Sub(start)
	}()
	return c
}

// wait blocks until the Prepare returns and reports its wall time and error.
func (c *prepareCall) wait() (time.Duration, error) {
	<-c.done
	return c.took, c.err
}

// serviceTally counts one step's served requests and service cases, so a
// step makes one recorder call per counter rather than two per (content,
// EDP) slot.
type serviceTally struct {
	served             float64 // Σ r·dt over the step's slots
	local, peer, cloud int     // slots per service case (Cases 1, 2, 3)
}

// flush adds the tally to the "sim.requests.served" and "sim.serve.*"
// counters and resets it. Counters the step did not touch stay untouched.
func (t *serviceTally) flush(rec obs.Recorder) {
	if t.local+t.peer+t.cloud > 0 {
		rec.Add("sim.requests.served", t.served)
	}
	if t.local > 0 {
		rec.Add("sim.serve.local_hit", float64(t.local))
	}
	if t.peer > 0 {
		rec.Add("sim.serve.peer_share", float64(t.peer))
	}
	if t.cloud > 0 {
		rec.Add("sim.serve.cloud_fetch", float64(t.cloud))
	}
	*t = serviceTally{}
}

// strategyFreezer is implemented by policies whose prepared strategy can be
// read while their next Prepare runs (policy.MFGCP): Freeze returns a
// read-only view of the last prepared strategy that later Prepare calls
// leave unchanged. The simulator feature-tests for it to trade one epoch
// while the next epoch's strategy is determined; the baselines, whose
// Prepare takes microseconds, run their epochs one after another.
type strategyFreezer interface {
	Freeze() policy.Strategy
}

// policyCheckpointer is implemented by policies whose prepared strategy must
// survive checkpoint/resume bit-for-bit (policy.MFGCP, whose warm starts make
// later epochs depend on earlier solves). Stateless policies re-derive their
// strategy from (Seed, Epoch) in Prepare and need no snapshot.
type policyCheckpointer interface {
	CheckpointState() ([]byte, error)
	RestoreState([]byte) error
}

// peerIndex draws a uniformly random peer distinct from i (the paper assumes
// the centre assigns a random qualified EDP to respond to sharing requests).
// It takes the concrete *rand.Rand every other sampling helper in this
// package uses, so all randomness flows from the run's single seeded stream.
func peerIndex(rng *rand.Rand, m, i int) int {
	if m == 1 {
		return i
	}
	j := rng.Intn(m - 1)
	if j >= i {
		j++
	}
	return j
}

// transmissionRate returns EDP i's rate to its requesters: mean-field by
// default, exact pairwise SINR with the nearest Interfer agents when the
// ablation flag is set.
func transmissionRate(ch *mec.ChannelModel, agents []edp, i int, exact bool) float64 {
	if !exact {
		return ch.Rate(agents[i].h)
	}
	// Exact: the closest neighbours act as interferers at their true
	// distances.
	type cand struct {
		d float64
		h float64
	}
	self := &agents[i]
	best := make([]cand, 0, 8)
	for j := range agents {
		if j == i {
			continue
		}
		dx := agents[j].x - self.x
		dy := agents[j].y - self.y
		d := math.Hypot(dx, dy)
		best = append(best, cand{d: d, h: agents[j].h})
	}
	// Partial selection of the 4 nearest.
	n := 4
	if len(best) < n {
		n = len(best)
	}
	for a := 0; a < n; a++ {
		min := a
		for b := a + 1; b < len(best); b++ {
			if best[b].d < best[min].d {
				min = b
			}
		}
		best[a], best[min] = best[min], best[a]
	}
	hs := make([]float64, n)
	ds := make([]float64, n)
	for a := 0; a < n; a++ {
		hs[a] = best[a].h
		ds[a] = math.Max(best[a].d, 1)
	}
	r, err := ch.RateExact(self.h, 10, hs, ds)
	if err != nil {
		return ch.Rate(self.h)
	}
	return r
}
