package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
)

// rateOf is the constant caching rate of epochProbe's strategy for epoch e.
func rateOf(e int) float64 { return 0.1 * float64(e+1) }

// epochProbe is a policy double whose strategy for epoch e is the constant
// caching rate rateOf(e). It can freeze its strategy, so the simulator
// overlaps its epochs, and it records which epoch's strategy every Rate call
// read and which epoch its policy state held at every checkpoint.
type epochProbe struct {
	epochs int

	mu        sync.Mutex
	live      int   // epoch of the last Prepare, -1 before any
	prepares  []int // ctx.Epoch of every Prepare call, in call order
	done      map[int]chan struct{}
	reads     map[int]int // Rate calls per frozen epoch
	lateReads map[int]int // of those, calls made after the next Prepare returned
	liveReads int         // Rate calls on the policy itself
	states    []int       // the live epoch at every CheckpointState call
}

func newEpochProbe(epochs int) *epochProbe {
	return &epochProbe{epochs: epochs, live: -1, done: map[int]chan struct{}{},
		reads: map[int]int{}, lateReads: map[int]int{}}
}

// prepared returns the channel Prepare(e) closes when it returns.
func (p *epochProbe) prepared(e int) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, ok := p.done[e]
	if !ok {
		ch = make(chan struct{})
		p.done[e] = ch
	}
	return ch
}

func (p *epochProbe) Name() string         { return "epoch-probe" }
func (p *epochProbe) SharingEnabled() bool { return true }

func (p *epochProbe) Prepare(ctx *policy.EpochContext) error {
	ch := p.prepared(ctx.Epoch)
	p.mu.Lock()
	p.prepares = append(p.prepares, ctx.Epoch)
	p.live = ctx.Epoch
	p.mu.Unlock()
	close(ch)
	return nil
}

func (p *epochProbe) Rate(_, _ int, _, _, _ float64) (float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.liveReads++
	return rateOf(p.live), nil
}

func (p *epochProbe) Freeze() policy.Strategy {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &probeView{p: p, epoch: p.live}
}

func (p *epochProbe) CheckpointState() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.states = append(p.states, p.live)
	return []byte{byte(p.live)}, nil
}

func (p *epochProbe) RestoreState(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live = int(b[0])
	return nil
}

// probeView is epochProbe's frozen strategy of one epoch.
type probeView struct {
	p      *epochProbe
	epoch  int
	waited bool
}

func (v *probeView) SharingEnabled() bool { return true }

// Rate holds the first read of the epoch's trading until the next epoch's
// Prepare has returned, so every read of the epoch happens after the policy's
// live strategy moved on. A simulator that does not overlap never runs that
// Prepare during this trading, and the read fails.
func (v *probeView) Rate(_, _ int, _, _, _ float64) (float64, error) {
	if !v.waited && v.epoch+1 < v.p.epochs {
		select {
		case <-v.p.prepared(v.epoch + 1):
		case <-time.After(10 * time.Second):
			return 0, errors.New("the next epoch's Prepare did not run during this epoch's trading")
		}
		v.waited = true
	}
	v.p.mu.Lock()
	defer v.p.mu.Unlock()
	v.p.reads[v.epoch]++
	if v.p.live > v.epoch {
		v.p.lateReads[v.epoch]++
	}
	return rateOf(v.epoch), nil
}

// While epoch e+1 prepares, every Rate call of epoch e reads epoch e's
// strategy, and epoch e's checkpoint holds the policy state of epoch e: the
// next Prepare starts only after both are taken.
func TestCheckpointOfOverlappedEpochHoldsItsStrategy(t *testing.T) {
	const epochs = 3
	probe := newEpochProbe(epochs)
	cfg := quickConfig(t, probe)
	cfg.Epochs = epochs
	cfg.Checkpoint = CheckpointConfig{Dir: t.TempDir()}
	reg := obs.NewRegistry(nil)
	cfg.Obs = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for e, got := range probe.prepares {
		if got != e || len(probe.prepares) != epochs {
			t.Fatalf("Prepare calls for epochs %v, want each of 0..%d once, in order", probe.prepares, epochs-1)
		}
	}
	if probe.liveReads != 0 {
		t.Errorf("%d Rate calls read the live policy instead of a frozen strategy", probe.liveReads)
	}
	for e := 0; e < epochs; e++ {
		if probe.reads[e] == 0 {
			t.Fatalf("epoch %d: no Rate call read its strategy: %v", e, probe.reads)
		}
		if e+1 < epochs && probe.lateReads[e] != probe.reads[e] {
			t.Errorf("epoch %d: %d of %d reads came after epoch %d prepared, want all", e, probe.lateReads[e], probe.reads[e], e+1)
		}
		if got := res.Stats[e].MeanRate; math.Abs(got-rateOf(e)) > 1e-12 {
			t.Errorf("epoch %d traded at mean rate %v, want its own strategy's %v", e, got, rateOf(e))
		}
	}
	if len(probe.states) != epochs {
		t.Fatalf("policy state taken for %d checkpoints, want %d", len(probe.states), epochs)
	}
	for e, live := range probe.states {
		if live != e {
			t.Errorf("epoch %d's checkpoint holds the policy state of epoch %d", e, live)
		}
	}
	ck, err := LoadCheckpoint(cfg.Checkpoint.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.PolicyState) != 1 || int(ck.PolicyState[0]) != epochs-1 {
		t.Errorf("final checkpoint policy state %v, want epoch %d", ck.PolicyState, epochs-1)
	}
	s := reg.Snapshot()
	if got := s.Counters["sim.epochs.overlapped"]; got != epochs-1 {
		t.Errorf("sim.epochs.overlapped = %g, want %d", got, epochs-1)
	}
	if got := s.Histograms["sim.strategy.wait.seconds"].Count; got != epochs {
		t.Errorf("sim.strategy.wait.seconds has %d observations, want %d", got, epochs)
	}
}

// cancelProbe prepares epoch 0 at once and cancels the run on the first
// trading read, while epoch 1's Prepare blocks until the run's context ends,
// like a solve interrupted mid-iteration.
type cancelProbe struct {
	cancel   context.CancelFunc
	started  chan struct{} // closed when epoch 1's Prepare starts
	returned atomic.Bool   // epoch 1's Prepare has returned
}

func (p *cancelProbe) Name() string                                    { return "cancel-probe" }
func (p *cancelProbe) SharingEnabled() bool                            { return true }
func (p *cancelProbe) Rate(_, _ int, _, _, _ float64) (float64, error) { return 0.5, nil }
func (p *cancelProbe) Freeze() policy.Strategy                         { return &cancelView{p: p} }

func (p *cancelProbe) Prepare(ctx *policy.EpochContext) error {
	if ctx.Epoch == 0 {
		return nil
	}
	close(p.started)
	<-ctx.Context().Done()
	// Return late, so a run that did not wait would be gone by now.
	time.Sleep(50 * time.Millisecond)
	p.returned.Store(true)
	return ctx.Context().Err()
}

type cancelView struct {
	p    *cancelProbe
	once sync.Once
}

func (v *cancelView) SharingEnabled() bool { return true }

func (v *cancelView) Rate(_, _ int, _, _, _ float64) (float64, error) {
	v.once.Do(func() {
		select {
		case <-v.p.started:
		case <-time.After(10 * time.Second): // no Prepare ran ahead: the test fails below
		}
		v.p.cancel()
	})
	return 0.5, nil
}

// A run cancelled mid-trading while the next epoch's Prepare is pending
// returns ErrInterrupted only after that Prepare has returned, and leaves no
// goroutine running.
func TestCancelMidTradingWaitsForPendingPrepare(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := &cancelProbe{cancel: cancel, started: make(chan struct{})}
	cfg := quickConfig(t, probe)
	cfg.Epochs = 3
	res, err := RunContext(ctx, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	select {
	case <-probe.started:
	default:
		t.Fatal("epoch 1's Prepare did not start while epoch 0 traded")
	}
	if !probe.returned.Load() {
		t.Fatal("RunContext returned while epoch 1's Prepare was still running")
	}
	if res == nil || len(res.Stats) != 0 || len(res.FinalQ) != cfg.Params.M {
		t.Fatalf("partial result %+v, want epoch 0 interrupted with the final states", res)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// preparesCounted counts MFG-CP's Prepare calls; embedding the concrete
// policy keeps its Freeze, so its epochs overlap like MFG-CP's own.
type preparesCounted struct {
	*policy.MFGCP
	calls atomic.Int32
}

func (p *preparesCounted) Prepare(ctx *policy.EpochContext) error {
	p.calls.Add(1)
	return p.MFGCP.Prepare(ctx)
}

// The simulator overlaps exactly when the next epoch's workloads are known
// before an epoch trades: with a policy that can freeze its strategy and
// demand that is not requester-level. Under a fault plan an epoch forced to
// fail runs no Prepare, ahead or otherwise, so the plan's per-epoch
// decisions hold.
func TestFaultPlanOverlapDecision(t *testing.T) {
	const epochs = 4
	plan := &FaultPlan{Seed: 11, SolverFail: 0.5}
	forced := 0
	for e := 0; e < epochs; e++ {
		if plan.epochFaults(e, 12, 15).solverFail {
			forced++
		}
	}
	if forced == 0 || forced == epochs {
		t.Fatalf("fault seed forces %d of %d epochs; pick one that forces some", forced, epochs)
	}
	for _, tc := range []struct {
		name       string
		pol        policy.Policy
		requesters bool
		faults     *FaultPlan
		overlapped float64
		prepares   int32
	}{
		{"mfg-cp", &preparesCounted{MFGCP: policy.NewMFGCP()}, false, nil, epochs - 1, epochs},
		{"mfg-cp-requester-level", &preparesCounted{MFGCP: policy.NewMFGCP()}, true, nil, 0, epochs},
		{"rr-baseline", policy.NewRR(), false, nil, 0, -1},
		{"mfg-cp-forced-failures", &preparesCounted{MFGCP: policy.NewMFGCP()}, false, plan, -1, epochs - int32(forced)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig(t, tc.pol)
			cfg.Epochs = epochs
			cfg.Faults = tc.faults
			if tc.requesters {
				cfg.Requesters = RequesterConfig{J: 10, Speed: 3, RequestsPerRequester: 6, TimelinessNoise: 0.3}
			}
			reg := obs.NewRegistry(nil)
			cfg.Obs = reg
			if _, err := Run(cfg); err != nil {
				t.Fatalf("Run: %v", err)
			}
			s := reg.Snapshot()
			want := tc.overlapped
			if want < 0 { // every prepared epoch after the first ran ahead
				want = float64(tc.prepares)
				if !plan.epochFaults(0, 12, 15).solverFail {
					want--
				}
			}
			if got := s.Counters["sim.epochs.overlapped"]; got != want {
				t.Errorf("sim.epochs.overlapped = %g, want %g", got, want)
			}
			if pc, ok := tc.pol.(*preparesCounted); ok && pc.calls.Load() != tc.prepares {
				t.Errorf("%d Prepare calls, want %d", pc.calls.Load(), tc.prepares)
			}
		})
	}
}
