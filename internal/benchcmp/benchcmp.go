// Package benchcmp parses `go test -bench` output and compares it against a
// stored baseline (BENCH_baseline.json at the repository root), flagging
// per-benchmark median ns/op movements beyond a relative threshold. It is
// the library behind the `benchdiff` tool and the informational CI bench
// job: machine variance makes absolute times meaningless across hosts, so
// the comparison is advisory — a flagged regression asks for a human look,
// it does not fail the build.
package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/numerics"
)

// Result is one benchmark summarised over its repeated runs (`-count N`):
// the median of each value, and the quartiles of ns/op.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	Q1NsPerOp   float64 `json:"q1_ns_per_op,omitempty"`
	Q3NsPerOp   float64 `json:"q3_ns_per_op,omitempty"`
	Runs        int     `json:"runs,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Spread is the interquartile range of ns/op relative to the median, 0 when
// the result records no quartiles.
func (r Result) Spread() float64 {
	if r.NsPerOp == 0 {
		return 0
	}
	return (r.Q3NsPerOp - r.Q1NsPerOp) / r.NsPerOp
}

// Run is one parsed `go test -bench` output: the host its header lines name
// and the summary of every benchmark in it.
type Run struct {
	// Host is the OS/architecture, CPU and GOMAXPROCS of the run, for
	// example "linux/amd64, Intel Xeon Processor, GOMAXPROCS 2".
	Host    string
	Results []Result
}

// benchLine matches one `go test -bench` result line: name (with the
// trailing -GOMAXPROCS tag), iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+(.*)$`)

// Parse extracts benchmark results from `go test -bench` output, tolerating
// the interleaved non-benchmark lines (PASS, ok) and reading the host from
// the goos/goarch/cpu headers. The -GOMAXPROCS suffix is stripped so
// baselines compare across machines. Repeated runs of one benchmark are
// summarised by their median, with the quartiles of ns/op as its spread.
func Parse(r io.Reader) (*Run, error) {
	runs := make(map[string][][3]float64) // ns/op, B/op, allocs/op per run
	var order []string
	var goos, goarch, cpu, procs string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if key, v, ok := strings.Cut(line, ":"); ok {
			switch key {
			case "goos":
				goos = strings.TrimSpace(v)
			case "goarch":
				goarch = strings.TrimSpace(v)
			case "cpu":
				cpu = strings.TrimSpace(v)
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		var vals [3]float64
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcmp: %s: bad value %q: %w", name, fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				vals[0] = v
			case "B/op":
				vals[1] = v
			case "allocs/op":
				vals[2] = v
			}
		}
		if vals[0] == 0 {
			continue // metric-only lines (custom units) are not comparable
		}
		if m[2] != "" {
			procs = m[2]
		}
		if _, ok := runs[name]; !ok {
			order = append(order, name)
		}
		runs[name] = append(runs[name], vals)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := &Run{Host: host(goos, goarch, cpu, procs), Results: make([]Result, 0, len(order))}
	for _, name := range order {
		out.Results = append(out.Results, summarise(name, runs[name]))
	}
	return out, nil
}

// summarise reduces the runs of one benchmark to their medians and the
// ns/op quartiles.
func summarise(name string, runs [][3]float64) Result {
	col := func(k int) []float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = r[k]
		}
		sort.Float64s(v)
		return v
	}
	ns := col(0)
	return Result{
		Name:        name,
		NsPerOp:     numerics.Quantile(ns, 0.5),
		Q1NsPerOp:   numerics.Quantile(ns, 0.25),
		Q3NsPerOp:   numerics.Quantile(ns, 0.75),
		Runs:        len(runs),
		BytesPerOp:  numerics.Quantile(col(1), 0.5),
		AllocsPerOp: numerics.Quantile(col(2), 0.5),
	}
}

// host joins the header fields a run printed into one description.
func host(goos, goarch, cpu, procs string) string {
	var parts []string
	if goos != "" || goarch != "" {
		parts = append(parts, goos+"/"+goarch)
	}
	if cpu != "" {
		parts = append(parts, cpu)
	}
	if procs != "" {
		parts = append(parts, "GOMAXPROCS "+procs)
	}
	return strings.Join(parts, ", ")
}

// Baseline is the stored reference measurement set.
type Baseline struct {
	// Note documents how the baseline was produced (commands, benchtime).
	Note string `json:"note,omitempty"`
	// Host is the machine and toolchain the baseline was measured on.
	Host       string            `json:"host,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// LoadBaseline reads a baseline JSON file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchcmp: %s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchcmp: %s carries no benchmarks", path)
	}
	return &b, nil
}

// NewBaseline builds a baseline from parsed results.
func NewBaseline(note string, results []Result) *Baseline {
	b := &Baseline{Note: note, Benchmarks: make(map[string]Result, len(results))}
	for _, r := range results {
		b.Benchmarks[r.Name] = r
	}
	return b
}

// Write stores the baseline as indented JSON.
func (b *Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Delta is one baseline-vs-current comparison row.
type Delta struct {
	Name      string
	Base, Cur float64 // median ns/op; Cur == 0 means missing from the current run
	// BaseSpread and CurSpread are each side's interquartile range relative
	// to its median (0 when a side has no quartiles).
	BaseSpread, CurSpread float64
	Ratio                 float64 // Cur / Base
	Regressed             bool    // Ratio beyond 1 + threshold
	Improved              bool    // Ratio below 1 − threshold
}

// Compare matches the current results against the baseline. Benchmarks
// absent from either side are reported with a zero counterpart rather than
// dropped (a silently vanished benchmark is itself a regression signal).
func Compare(base *Baseline, current []Result, threshold float64) []Delta {
	curByName := make(map[string]Result, len(current))
	for _, r := range current {
		curByName[r.Name] = r
	}
	var out []Delta
	for name, b := range base.Benchmarks {
		d := Delta{Name: name, Base: b.NsPerOp, BaseSpread: b.Spread()}
		if c, ok := curByName[name]; ok {
			d.Cur, d.CurSpread = c.NsPerOp, c.Spread()
			d.Ratio = c.NsPerOp / b.NsPerOp
			d.Regressed = d.Ratio > 1+threshold
			d.Improved = d.Ratio < 1-threshold
		}
		out = append(out, d)
		delete(curByName, name)
	}
	for name, c := range curByName {
		out = append(out, Delta{Name: name, Cur: c.NsPerOp, CurSpread: c.Spread()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Regressions filters the deltas down to flagged slowdowns and benchmarks
// missing from the current run.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed || (d.Cur == 0 && d.Base > 0) {
			out = append(out, d)
		}
	}
	return out
}

// Format renders the deltas as an aligned text table: each side's median
// ns/op with its interquartile spread, then the change of the medians.
func Format(w io.Writer, deltas []Delta) {
	fmt.Fprintf(w, "%-40s %14s %7s %14s %7s %8s\n", "benchmark", "base ns/op", "IQR", "current ns/op", "IQR", "delta")
	for _, d := range deltas {
		switch {
		case d.Cur == 0:
			fmt.Fprintf(w, "%-40s %14.0f %7s %14s %7s %8s\n", d.Name, d.Base, spread(d.BaseSpread), "-", "", "MISSING")
		case d.Base == 0:
			fmt.Fprintf(w, "%-40s %14s %7s %14.0f %7s %8s\n", d.Name, "-", "", d.Cur, spread(d.CurSpread), "NEW")
		default:
			tag := ""
			if d.Regressed {
				tag = "  REGRESSED"
			} else if d.Improved {
				tag = "  improved"
			}
			fmt.Fprintf(w, "%-40s %14.0f %7s %14.0f %7s %+7.1f%%%s\n",
				d.Name, d.Base, spread(d.BaseSpread), d.Cur, spread(d.CurSpread), 100*(d.Ratio-1), tag)
		}
	}
}

// spread formats a relative interquartile range, blank when unknown.
func spread(s float64) string {
	if s == 0 {
		return ""
	}
	return fmt.Sprintf("%.1f%%", 100*s)
}
