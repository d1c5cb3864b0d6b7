package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
)

// HistStat is the exported summary of one histogram: the exact moment
// statistics of the PR-1 shape, extended with bounded-error quantiles and the
// sparse cumulative bucket list they (and the Prometheus renderer) are
// computed from. Old snapshots decode unchanged — the new fields are
// omitempty additions.
type HistStat struct {
	Count  uint64  `json:"count"`
	Sum    float64 `json:"sum"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`

	P50  float64 `json:"p50,omitempty"`
	P90  float64 `json:"p90,omitempty"`
	P99  float64 `json:"p99,omitempty"`
	P999 float64 `json:"p999,omitempty"`

	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a Registry. It
// marshals to JSON with sorted keys (Go maps marshal ordered), so equal
// telemetry states produce byte-identical dumps.
type Snapshot struct {
	Counters   map[string]float64  `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

// Snapshot copies the current metric state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistStat),
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stat()
	}
	r.mu.RUnlock()
	if r.runtimeMetrics.Load() {
		collectRuntime(&s)
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("obs: encode snapshot: %w", err)
	}
	return nil
}

// WriteJSONFile dumps the snapshot to path (the CLI's -trace-out sink).
func (s Snapshot) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create %s: %w", path, err)
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshot parses a snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return s, nil
}

// Render writes a compact human-readable telemetry summary: counters,
// gauges, then histogram timings, each sorted by name.
func (s Snapshot) Render(w io.Writer) error {
	names := func(n int) []string { return make([]string, 0, n) }
	cn := names(len(s.Counters))
	for n := range s.Counters {
		cn = append(cn, n)
	}
	sort.Strings(cn)
	for _, n := range cn {
		if _, err := fmt.Fprintf(w, "  counter    %-34s %g\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	gn := names(len(s.Gauges))
	for n := range s.Gauges {
		gn = append(gn, n)
	}
	sort.Strings(gn)
	for _, n := range gn {
		if _, err := fmt.Fprintf(w, "  gauge      %-34s %g\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	hn := names(len(s.Histograms))
	for n := range s.Histograms {
		hn = append(hn, n)
	}
	sort.Strings(hn)
	for _, n := range hn {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "  histogram  %-34s n=%d mean=%.4g min=%.4g max=%.4g\n",
			n, h.Count, h.Mean, h.Min, h.Max); err != nil {
			return err
		}
	}
	return nil
}

// PublishExpvar exposes the registry under the given expvar name (visible on
// /debug/vars of any expvar-serving mux). Publishing the same name twice is
// a no-op instead of the expvar panic, so tests and repeated CLI runs in one
// process stay safe.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// ServeHTTP implements http.Handler so a Registry can be mounted directly as
// a /metrics endpoint. The representation is content-negotiated: JSON (the
// backward-compatible default) or Prometheus text exposition 0.0.4 when the
// Accept header asks for a text format or the request carries an explicit
// ?format=prom override (?format=json forces JSON for curl ergonomics). Both
// answers set an explicit Content-Type.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s := r.Snapshot()
	if wantsProm(req) {
		w.Header().Set("Content-Type", PromContentType)
		_ = s.WriteProm(w)
		return
	}
	w.Header().Set("Content-Type", JSONContentType)
	_ = s.WriteJSON(w)
}

// Mount registers the telemetry surface of r on mux, the one place it is
// declared for the daemon's port and the CLI's -metrics-addr alike:
//
//	GET /metrics      r as JSON, or Prometheus text on request
//	GET /debug/vars   expvar, with r published under "mfgcp"
//	GET /debug/pprof  the standard pprof handlers
func (r *Registry) Mount(mux *http.ServeMux) {
	r.PublishExpvar("mfgcp")
	mux.Handle("GET /metrics", r)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
