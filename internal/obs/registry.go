package obs

import (
	"context"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the live Recorder: counters and gauges are single atomics
// behind an RLock name lookup, histograms take one short per-histogram lock
// per sample. An optional slog.Logger receives span and event records at
// debug level; with a nil logger the Registry is metrics-only.
type Registry struct {
	logger *slog.Logger

	mu       sync.RWMutex
	counters map[string]*counter
	gauges   map[string]*gauge
	hists    map[string]*Histogram

	runtimeMetrics atomic.Bool
}

// NewRegistry returns an empty Registry. logger may be nil (metrics without
// the trace stream).
func NewRegistry(logger *slog.Logger) *Registry {
	return &Registry{
		logger:   logger,
		counters: make(map[string]*counter),
		gauges:   make(map[string]*gauge),
		hists:    make(map[string]*Histogram),
	}
}

// counter is an atomically-updated float64 accumulator.
type counter struct{ bits atomic.Uint64 }

func (c *counter) add(delta float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (c *counter) value() float64 { return math.Float64frombits(c.bits.Load()) }

// gauge is an atomically-stored float64 last-value cell.
type gauge struct{ bits atomic.Uint64 }

func (g *gauge) set(v float64)  { g.bits.Store(math.Float64bits(v)) }
func (g *gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

// lookup returns m[name] under the read lock, or creates it under the write
// lock. The triple of typed helpers below keeps the fast path monomorphic.
func (r *Registry) counterFor(name string) *counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &counter{}
		r.counters[name] = c
	}
	return c
}

func (r *Registry) gaugeFor(name string) *gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &gauge{}
		r.gauges[name] = g
	}
	return g
}

func (r *Registry) histFor(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// SetRuntimeMetrics toggles Go runtime telemetry (goroutines, heap bytes, GC
// pause histogram, GOMAXPROCS — the go.* names) being sampled into every
// Snapshot. Off by default so snapshots of equal workloads stay
// byte-identical; long-running daemons switch it on.
func (r *Registry) SetRuntimeMetrics(on bool) { r.runtimeMetrics.Store(on) }

// Add implements Recorder.
func (r *Registry) Add(name string, delta float64) { r.counterFor(name).add(delta) }

// Gauge implements Recorder.
func (r *Registry) Gauge(name string, v float64) { r.gaugeFor(name).set(v) }

// Observe implements Recorder.
func (r *Registry) Observe(name string, v float64) { r.histFor(name).Observe(v) }

// Start implements Recorder.
func (r *Registry) Start(name string) Span {
	return Span{reg: r, name: name, t0: time.Now()}
}

// Event implements Recorder.
func (r *Registry) Event(name string, attrs ...slog.Attr) {
	if r.logger == nil {
		return
	}
	r.logger.LogAttrs(context.Background(), slog.LevelDebug, name, attrs...)
}

// Enabled implements Recorder.
func (r *Registry) Enabled() bool { return true }

// span is Span.End's sink: one histogram sample plus one debug trace record.
func (r *Registry) span(name string, d time.Duration, attrs []slog.Attr) {
	if r.logger == nil || !r.logger.Enabled(context.Background(), slog.LevelDebug) {
		return
	}
	all := make([]slog.Attr, 0, len(attrs)+2)
	all = append(all, slog.String("span", name), slog.Duration("elapsed", d))
	all = append(all, attrs...)
	r.logger.LogAttrs(context.Background(), slog.LevelDebug, "span.end", all...)
}
