package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/serve"
	"repro/internal/trace"
)

// options are the inputs every workload shares.
type options struct {
	seed    int64
	seconds int
	traced  bool
	conns   int    // the generator's connection cap: the host's CPU count
	tmp     string // scratch directory inside the build directory
}

// outcome is one run of one workload.
type outcome struct {
	e2e       map[string]float64 // end-to-end metrics
	layer     map[string]float64 // per-layer metrics (traced runs)
	phases    map[string]*tally
	attempted int64
	failed    int64
	problems  []string       // failed checks beyond single answers
	notes     map[string]any // run-record extras: shares, sample counts, sizing
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, phases: map[string]*tally{}, notes: map[string]any{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// addPhase records a checked phase; every phase's failures count against
// the run.
func (o *outcome) addPhase(name string, t *tally, scheduled int) {
	o.phases[name] = t
	o.attempted += int64(scheduled)
	o.failed += t.Failed
	if t.Succeeded+t.Failed != int64(scheduled) {
		o.problem("%s: %d scheduled but %d succeeded + %d failed", name, scheduled, t.Succeeded, t.Failed)
	}
}

// universe is a set of distinct solve requests derived from the synthetic
// viewing trace the way `mfgcp loadgen` derives them: trace.Generate, then
// trace.BuildWorkloads, one body per content per epoch.
type universe struct {
	bodies    [][]byte
	keys      []string // canonical cache key of each body
	workloads []engine.Workload
}

// traceUniverse returns the first n distinct canonical keys (n ≤ 0 keeps
// every key of epochs), in epoch-then-content order. The trace is the
// generator's default dataset; seed drives BuildWorkloads' per-epoch demand
// noise, so every seed gives other keys from the same demand structure.
func traceUniverse(seed int64, epochs, n int, cfg engine.Config) (*universe, error) {
	gen := trace.DefaultGenConfig()
	ds, err := trace.Generate(gen)
	if err != nil {
		return nil, err
	}
	p := mec.Default()
	wls, err := trace.BuildWorkloads(ds, p, epochs, 2000, seed)
	if err != nil {
		return nil, err
	}
	u := &universe{}
	seen := make(map[string]bool)
	for i := range wls {
		for k := 0; k < p.K; k++ {
			w, err := wls[i].Workload(k)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(struct{ Workload engine.Workload }{w})
			if err != nil {
				return nil, err
			}
			key := engine.CacheKey(cfg, w)
			if seen[key] {
				continue
			}
			seen[key] = true
			u.bodies = append(u.bodies, body)
			u.keys = append(u.keys, key)
			u.workloads = append(u.workloads, w)
			if n > 0 && len(u.keys) == n {
				return u, nil
			}
		}
	}
	if n > 0 {
		return nil, fmt.Errorf("trace of %d epochs has %d distinct keys, need %d", epochs, len(u.keys), n)
	}
	return u, nil
}

// rtSample reads the runtime counters the per-layer runtime metrics use.
type rtSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// liveHeapMB returns the live heap in MB after two forced collections: the
// first moves sync.Pool caches to their victim lists, the second frees them,
// so pooled scratch buffers do not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeLayers adds the runtime per-layer metrics of a phase.
func runtimeLayers(o *outcome, a, b rtSample, requests int64) {
	o.layer["runtime.alloc_mb_per_request"] = ratio((b.allocBytes-a.allocBytes)/(1<<20), float64(requests))
	o.layer["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// genLayers adds the generator's per-phase counts and lateness.
func genLayers(o *outcome, replies []reply) {
	for _, name := range []string{"setup", "timed"} {
		t := o.phases[name]
		if t == nil {
			t = &tally{}
		}
		o.layer["gen.sent."+name] = float64(t.Sent)
		o.layer["gen.succeeded."+name] = float64(t.Succeeded)
		o.layer["gen.failed."+name] = float64(t.Failed)
	}
	late := make([]float64, 0, len(replies))
	for i := range replies {
		if !replies[i].Sent.IsZero() {
			late = append(late, ms(replies[i].late()))
		}
	}
	// The generator's lateness is a validity check on its own latencies, so
	// report the highest value when the sample is too small for a p99.
	if v, err := percentile(late, 99); err == nil {
		o.layer["gen.late_ms_p99"] = v
	} else {
		o.layer["gen.late_ms_p99"] = maxOf(late)
	}
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the due-time latencies (ms) of the succeeded replies.
func latencies(replies []reply, t *tally) []float64 {
	out := make([]float64, 0, len(replies))
	for i := range replies {
		if t.sources[i] != "" {
			out = append(out, ms(replies[i].latency()))
		}
	}
	return out
}

// latencyMetrics sets latency_p50_ms and latency_tail_ms (see
// tailPercentile). Sample sizes depend only on --seconds, so each workload
// always reports the same percentile: p95 for fleet, p75 for cold and p67
// for market at 20 s.
func latencyMetrics(o *outcome, lat []float64) error {
	p50, err := percentile(lat, 50)
	if err != nil {
		return fmt.Errorf("latency_p50_ms: %w", err)
	}
	p, tail, err := tailPercentile(lat)
	if err != nil {
		return fmt.Errorf("latency_tail_ms: %w", err)
	}
	o.e2e["latency_p50_ms"] = p50
	o.e2e["latency_tail_ms"] = tail
	o.notes["latency_samples"] = len(lat)
	o.notes["latency_tail_percentile"] = p
	return nil
}

// reconcile checks a phase's client-side source counts against the daemons'
// registry deltas. A peer fill is answered by its owner's own ladder, whose
// rung the client never sees: those owner-side answers (ownerSide, known in
// traced runs from the owner's access log; nil otherwise) must make up the
// exact difference, and together they must number cluster.peer.served.
func reconcile(o *outcome, phase string, d map[string]float64, t *tally, ownerSide map[serve.Source]int64) {
	exact := []struct {
		counter string
		src     serve.Source
	}{
		{"serve.surrogate.hit", serve.SourceSurrogate},
		{"cluster.peer_hit", serve.SourcePeer},
	}
	for _, e := range exact {
		if got, want := d[e.counter], float64(t.Sources[e.src]); got != want {
			o.problem("%s: %s delta %g, client saw %g %s answers", phase, e.counter, got, want, e.src)
		}
	}
	owner := []struct {
		counter string
		src     serve.Source
	}{
		{"engine.cache.hit", serve.SourceCache},
		{"store.hit", serve.SourceStore},
		{"serve.solve.coalesced", serve.SourceCoalesced},
		{"serve.solve.executed", serve.SourceSolve},
	}
	var rest float64
	for _, e := range owner {
		r := d[e.counter] - float64(t.Sources[e.src])
		if r < 0 {
			o.problem("%s: %s delta %g is below the %d %s answers clients saw", phase, e.counter, d[e.counter], t.Sources[e.src], e.src)
		}
		if ownerSide != nil && r != float64(ownerSide[e.src]) {
			o.problem("%s: %s delta %g = %d client + %g owner-side, owners' logs show %d", phase, e.counter, d[e.counter], t.Sources[e.src], r, ownerSide[e.src])
		}
		rest += r
	}
	if served := d["cluster.peer.served"]; rest != served {
		o.problem("%s: %g owner-side answers but cluster.peer.served delta %g", phase, rest, served)
	}
	if t.Sent+t.Missing != t.Succeeded+t.Failed {
		o.problem("%s: sent %d + missing %d != succeeded %d + failed %d", phase, t.Sent, t.Missing, t.Succeeded, t.Failed)
	}
}
