package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterSemantics(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("a", 1)
	r.Add("a", 2.5)
	r.Add("b", -1)
	s := r.Snapshot()
	if got := s.Counters["a"]; got != 3.5 {
		t.Errorf("counter a = %g, want 3.5", got)
	}
	if got := s.Counters["b"]; got != -1 {
		t.Errorf("counter b = %g, want -1", got)
	}
	if len(s.Counters) != 2 {
		t.Errorf("want 2 counters, got %d", len(s.Counters))
	}
}

func TestGaugeKeepsLastValue(t *testing.T) {
	r := NewRegistry(nil)
	r.Gauge("g", 1)
	r.Gauge("g", 42.5)
	if got := r.Snapshot().Gauges["g"]; got != 42.5 {
		t.Errorf("gauge = %g, want 42.5", got)
	}
}

func TestHistogramMoments(t *testing.T) {
	r := NewRegistry(nil)
	for _, v := range []float64{1, 2, 3, 4} {
		r.Observe("h", v)
	}
	h := r.Snapshot().Histograms["h"]
	if h.Count != 4 || h.Sum != 10 || h.Min != 1 || h.Max != 4 {
		t.Errorf("histogram stats wrong: %+v", h)
	}
	if h.Mean != 2.5 {
		t.Errorf("mean = %g, want 2.5", h.Mean)
	}
	if want := math.Sqrt(1.25); math.Abs(h.StdDev-want) > 1e-12 {
		t.Errorf("stddev = %g, want %g", h.StdDev, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("pde.sweeps", 120)
	r.Gauge("sim.cache.mean_remaining", 33.25)
	r.Observe("core.solver.residual", 0.5)
	r.Observe("core.solver.residual", 0.125)
	want := r.Snapshot()

	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", a, b)
	}
}

func TestSnapshotRender(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("c", 2)
	r.Gauge("g", 1)
	r.Observe("h", 3)
	var buf bytes.Buffer
	if err := r.Snapshot().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counter", "gauge", "histogram", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentIncrements exercises every metric kind from many goroutines;
// -race verifies the synchronisation, the totals verify no lost updates.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry(nil)
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add("n", 1)
				r.Observe("o", float64(i))
				r.Gauge("g", float64(w))
				sp := r.Start("s")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["n"]; got != workers*per {
		t.Errorf("counter = %g, want %d", got, workers*per)
	}
	if got := s.Histograms["o"].Count; got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := s.Histograms["s.seconds"].Count; got != workers*per {
		t.Errorf("span histogram count = %d, want %d", got, workers*per)
	}
}

func TestNopRecorderInert(t *testing.T) {
	if Nop.Enabled() {
		t.Error("Nop must report Enabled() == false")
	}
	Nop.Add("x", 1)
	Nop.Gauge("x", 1)
	Nop.Observe("x", 1)
	Nop.Event("x", slog.String("k", "v"))
	sp := Nop.Start("x")
	if d := sp.End(); d != 0 {
		t.Errorf("no-op span measured %v, want 0", d)
	}
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) must return Nop")
	}
	r := NewRegistry(nil)
	if OrNop(r) != Recorder(r) {
		t.Error("OrNop must pass a live recorder through")
	}
}

func TestSpanRecordsDurationAndLogs(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry(NewLogger(&buf, slog.LevelDebug))
	sp := r.Start("region")
	time.Sleep(time.Millisecond)
	if d := sp.End(slog.Int("iter", 3)); d <= 0 {
		t.Errorf("span duration %v, want > 0", d)
	}
	h := r.Snapshot().Histograms["region.seconds"]
	if h.Count != 1 || h.Sum <= 0 {
		t.Errorf("span histogram not recorded: %+v", h)
	}
	out := buf.String()
	for _, want := range []string{"span.end", "span=region", "iter=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestEventRespectsLevel(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry(NewLogger(&buf, slog.LevelInfo))
	r.Event("quiet", slog.Int("k", 1))
	r.Start("quiet").End()
	if buf.Len() != 0 {
		t.Errorf("info-level logger must swallow debug events, got %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel must reject unknown levels")
	}
}

func TestServeMetricsEndpoints(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("served", 7)
	mux := http.NewServeMux()
	r.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, `"served": 7`) {
		t.Errorf("/metrics missing counter: %s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "mfgcp") {
		t.Errorf("/debug/vars missing published registry: %s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ does not look like a pprof index: %.120s", body)
	}
	// The routes are GET-only, on the CLI's port as on the daemon's.
	resp, err := http.Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry(nil)
	r.PublishExpvar("obs_test_once")
	r.PublishExpvar("obs_test_once") // must not panic
}

func TestWriteJSONFile(t *testing.T) {
	r := NewRegistry(nil)
	r.Add("k", 1)
	path := t.TempDir() + "/snap.json"
	if err := r.Snapshot().WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["k"] != 1 {
		t.Errorf("file round trip lost counter: %+v", s)
	}
}
