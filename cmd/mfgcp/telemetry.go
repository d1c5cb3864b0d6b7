package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
)

// obsFlags carries the observability flags shared by every mfgcp subcommand:
//
//	-log-level LEVEL    structured slog tracing to stderr (debug shows spans
//	                    and per-iteration residual events)
//	-metrics-addr ADDR  serve /metrics, /debug/vars and /debug/pprof
//	-trace-out FILE     write the final JSON telemetry snapshot to FILE
//
// With none of them set the pipeline runs on the no-op recorder and output is
// byte-identical to an uninstrumented build.
type obsFlags struct {
	logLevel    string
	metricsAddr string
	traceOut    string
}

// addObsFlags registers the shared flags on fs.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{}
	fs.StringVar(&f.logLevel, "log-level", "", "structured log level: debug, info, warn, error (empty = telemetry off)")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	fs.StringVar(&f.traceOut, "trace-out", "", "write a JSON telemetry snapshot to this file at the end of the run")
	return f
}

func (f *obsFlags) enabled() bool {
	return f.logLevel != "" || f.metricsAddr != "" || f.traceOut != ""
}

// telemetry is the live observability state of one CLI invocation.
type telemetry struct {
	Rec      obs.Recorder // obs.Nop when telemetry is off
	reg      *obs.Registry
	logger   *slog.Logger
	srv      *http.Server
	traceOut string
}

// setup builds the recorder, logger and optional metrics server the flags ask
// for. It always returns a usable telemetry (Rec == obs.Nop when disabled).
func (f *obsFlags) setup() (*telemetry, error) {
	t := &telemetry{Rec: obs.Nop}
	if !f.enabled() {
		return t, nil
	}
	level := slog.LevelInfo
	if f.logLevel != "" {
		var err error
		if level, err = obs.ParseLevel(f.logLevel); err != nil {
			return nil, err
		}
	}
	t.logger = obs.NewLogger(os.Stderr, level)
	t.reg = obs.NewRegistry(t.logger)
	t.Rec = t.reg
	t.traceOut = f.traceOut
	if f.metricsAddr != "" {
		ln, err := net.Listen("tcp", f.metricsAddr)
		if err != nil {
			return nil, fmt.Errorf("telemetry: listen %s: %w", f.metricsAddr, err)
		}
		mux := http.NewServeMux()
		t.reg.Mount(mux)
		t.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = t.srv.Serve(ln) }()
		t.logger.Info("telemetry server listening",
			"addr", ln.Addr().String(),
			"endpoints", "/metrics /debug/vars /debug/pprof")
	}
	return t, nil
}

// summary prints the current telemetry snapshot to stderr under the given
// heading. No-op when telemetry is off.
func (t *telemetry) summary(heading string) error {
	if t.reg == nil {
		return nil
	}
	if _, err := fmt.Fprintf(os.Stderr, "--- telemetry: %s ---\n", heading); err != nil {
		return err
	}
	return t.reg.Snapshot().Render(os.Stderr)
}

// finish dumps the -trace-out snapshot and stops the metrics server.
func (t *telemetry) finish() error {
	if t.reg == nil {
		return nil
	}
	var firstErr error
	if t.traceOut != "" {
		if err := t.reg.Snapshot().WriteJSONFile(t.traceOut); err != nil {
			firstErr = err
		} else {
			t.logger.Info("telemetry snapshot written", "path", t.traceOut)
		}
	}
	if t.srv != nil {
		if err := t.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// errorLogger returns the telemetry trace logger when live, falling back to a
// stderr logger so structured error records are emitted even with telemetry
// off.
func (t *telemetry) errorLogger() *slog.Logger {
	if t.logger != nil {
		return t.logger
	}
	return obs.NewLogger(os.Stderr, slog.LevelError)
}
