// Package obs is the zero-dependency observability layer of the MFG-CP
// pipeline. It provides
//
//   - a Recorder interface with counters, gauges and histograms, implemented
//     lock-cheap (atomic fast paths) by Registry and for free by Nop, so the
//     solver and simulator hot loops pay ~nothing when telemetry is off;
//   - structured event tracing via log/slog: Start/End spans time named
//     regions (HJB backward pass, FPK forward pass, per-dimension sweeps,
//     best-response iterations, market epochs) and emit debug events carrying
//     their duration and attributes;
//   - an exposition sink (snapshot.go): JSON / expvar-compatible snapshots
//     plus an optional HTTP endpoint serving /metrics, /debug/vars and
//     /debug/pprof.
//
// The layer is injected explicitly: engine.Config, sim.Config, the pde problem
// structs and experiments.Options all carry an optional Recorder that
// defaults to no-op. Library users and tests opt in by setting it to a
// *Registry (or any other implementation).
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// Recorder is the telemetry sink threaded through the pipeline. All methods
// are safe for concurrent use. Metric names are dot-separated lowercase
// (e.g. "pde.hjb.sweeps"); the three kinds live in separate namespaces, but
// reusing one name across kinds is discouraged.
type Recorder interface {
	// Add increments the named counter by delta (deltas may be fractional:
	// e.g. served requests are rate×dt contributions).
	Add(name string, delta float64)
	// Gauge sets the named gauge to its latest value.
	Gauge(name string, v float64)
	// Observe records one sample into the named histogram.
	Observe(name string, v float64)
	// Start opens a timed span. Span.End records the elapsed time into the
	// "<name>.seconds" histogram and emits a debug trace event.
	Start(name string) Span
	// Event emits a structured debug trace event (a point-in-time record,
	// e.g. one best-response iteration with its residual).
	Event(name string, attrs ...slog.Attr)
	// Enabled reports whether the recorder actually records, so hot paths
	// can skip assembling attributes or reading clocks when it does not.
	Enabled() bool
}

// Span is a timed region opened by Recorder.Start. The zero Span is inert,
// which is what the no-op recorder returns.
type Span struct {
	reg  *Registry
	name string
	t0   time.Time
}

// End closes the span: the elapsed wall time is recorded into the
// "<name>.seconds" histogram and a debug event with the duration plus the
// given attributes is emitted. It returns the elapsed time (zero for the
// no-op span) so callers can reuse the measurement.
func (s Span) End(attrs ...slog.Attr) time.Duration {
	if s.reg == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.reg.Observe(s.name+".seconds", d.Seconds())
	s.reg.span(s.name, d, attrs)
	return d
}

// nopRecorder discards everything. Its methods are tiny leaf calls that the
// compiler can devirtualise in many call sites; the pde benchmarks bound the
// residual overhead below 2% of a solve.
type nopRecorder struct{}

func (nopRecorder) Add(string, float64)        {}
func (nopRecorder) Gauge(string, float64)      {}
func (nopRecorder) Observe(string, float64)    {}
func (nopRecorder) Start(string) Span          { return Span{} }
func (nopRecorder) Event(string, ...slog.Attr) {}
func (nopRecorder) Enabled() bool              { return false }

// Nop is the shared no-op Recorder. It is the implicit default everywhere a
// Recorder field is left nil.
var Nop Recorder = nopRecorder{}

// OrNop normalises an optional recorder: nil becomes Nop, anything else is
// returned unchanged. Call it once at the top of an instrumented function so
// the hot path never nil-checks.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// ParseLevel maps a CLI level string onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger returns a text-handler slog.Logger writing to w at the given
// level — the structured trace stream behind the CLI's -log-level flag.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
