// Package experiments contains one runner per figure and table of the
// paper's evaluation (Section V). Each runner reproduces the corresponding
// workload, executes the MFG-CP stack (and the baselines where the paper
// compares them), and returns a Report whose tables and series carry the same
// rows the paper plots. DESIGN.md §4 maps every experiment to its modules;
// EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Options tunes a run without changing its meaning.
type Options struct {
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// Quick shrinks grids and populations so the whole suite finishes in
	// seconds (used by tests and -short benchmarks). Shapes are preserved.
	Quick bool
	// Obs receives the solver and market telemetry of every stage the
	// experiment runs (obs.Nop when nil). The CLI wires its -log-level,
	// -metrics-addr and -trace-out flags through this field; results are
	// unaffected.
	Obs obs.Recorder
	// Scheme selects the PDE time integrator for every equilibrium solve
	// ("implicit" — the default — or "explicit"; see pde.ParseScheme). The
	// CLI wires its -scheme flag through this field.
	Scheme string
	// EqCacheSize, when positive, bounds an equilibrium cache shared across
	// the epochs of each market run (see sim.Config.EqCacheSize). The CLI
	// wires its -eq-cache flag through this field.
	EqCacheSize int
	// Context, when set, bounds the whole experiment with cancellation or a
	// deadline: the market epoch loops and equilibrium solves abort promptly
	// when it fires. The CLI wires its -deadline flag and SIGINT handler
	// through this field. Nil means context.Background().
	Context context.Context
}

// Report is the outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Notes  []string
	Tables []*metrics.Table
	Sets   []*metrics.SeriesSet
}

// Note appends a free-form observation to the report.
func (r *Report) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render writes the report as human-readable text.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	for _, set := range r.Sets {
		if _, err := fmt.Fprintf(w, "\n%s (%s vs %s)\n", set.Title, set.YLabel, set.XLabel); err != nil {
			return err
		}
		for _, s := range set.Series {
			spark := metrics.Sparkline(s.Downsample(maxInt(1, s.Len()/40)).Values)
			if _, err := fmt.Fprintf(w, "  %-28s %s  last=%.4g\n", s.Label, spark, s.Last()); err != nil {
				return err
			}
		}
	}
	if len(r.Notes) > 0 {
		if _, err := fmt.Fprintln(w, "\nNotes:"); err != nil {
			return err
		}
		for _, n := range r.Notes {
			if _, err := fmt.Fprintf(w, "  - %s\n", n); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV writes every table and series set of the report as CSV files in
// dir (created if missing), named <id>_<slug>.csv.
func (r *Report) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: create %s: %w", dir, err)
	}
	write := func(name string, fn func(io.Writer) error) error {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", r.ID, slug(name)))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("experiments: create %s: %w", path, err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return fmt.Errorf("experiments: write %s: %w", path, err)
		}
		return f.Close()
	}
	for _, t := range r.Tables {
		if err := write(t.Title, t.WriteCSV); err != nil {
			return err
		}
	}
	for _, s := range r.Sets {
		set := s
		if err := write(set.Title, set.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && b.String()[b.Len()-1] != '_':
			b.WriteByte('_')
		}
	}
	return strings.Trim(b.String(), "_")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Runner produces a Report.
type Runner func(Options) (*Report, error)

// registry maps experiment ids to runners; populated by init() in the
// per-figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs lists all registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	if opt.Context != nil {
		if err := opt.Context.Err(); err != nil {
			return nil, fmt.Errorf("experiments: %s not started: %w", id, err)
		}
	}
	rec := obs.OrNop(opt.Obs)
	span := rec.Start("experiment." + id)
	rep, err := r(opt)
	rec.Add("experiments.runs", 1)
	span.End(slog.String("id", id), slog.Bool("ok", err == nil))
	return rep, err
}
