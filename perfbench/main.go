// Command perfbench is the repository benchmark. It runs one seeded workload
// in-process against the packages of this checkout, checks every answer,
// and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are BENCHMARK.json's end-to-end metrics, measured
// with tracing off. With -trace 1 they are its per-layer metrics: the
// workload runs untraced and then traced (access logs on, layer probes after
// it), and the difference between the two runs is the tracing overhead.
// The full run record — host, seed, per-phase counts, every metric with its
// unit, and in traced runs the layer-to-metric map — precedes that line.
//
// Run it through run.sh from the repository root, which builds it first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the program reads: the declared
// workloads and metrics, so every metric name and unit is declared once.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBudget bounds one workload's run — both passes of a traced run, set-up,
// probes and checks included — so a stuck run ends, failing, before the
// three minutes a run may take.
const runBudget = 170 * time.Second

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"cold":   runCold,
	"fleet":  runFleet,
	"market": runMarket,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold, fleet, market, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "length of the measured phase")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	buildDir := fs.String("build-dir", ".bench_build", "directory for temporary stores and tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	tmp, err := os.MkdirTemp(*buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range names {
		if workloads[wl] == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", wl)
			return 2
		}
		o := options{seed: *seed, seconds: *seconds, traced: *traced == 1, conns: runtime.NumCPU(), tmp: filepath.Join(tmp, wl)}
		if err := os.Mkdir(o.tmp, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		res, rec, err := runWorkload(wl, o, sp)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl, err)
			return 2
		}
		doc, _ := json.MarshalIndent(rec, "", "  ")
		fmt.Fprintln(stdout, string(doc))
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for m, v := range res.Metrics {
			if len(names) > 1 {
				m = wl + "." + m
			}
			total.Metrics[m] = v
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// runWorkload runs one workload in the requested mode and returns its result
// line and run record.
func runWorkload(name string, o options, sp *spec) (*result, map[string]any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	exec := func(o options) (*outcome, error) { return workloads[name](ctx, o) }
	out, err := exec(o)
	if err != nil {
		return nil, nil, err
	}
	runs := []*outcome{out}
	declared := sp.EndToEnd
	values := out.e2e
	if o.traced {
		untraced := o
		untraced.traced = false
		base, err := exec(untraced)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, base)
		if err := probeLayers(ctx, out, o); err != nil {
			return nil, nil, err
		}
		for _, m := range sp.EndToEnd {
			out.layer["trace.overhead_frac."+m.Name] = ratio(out.e2e[m.Name]-base.e2e[m.Name], base.e2e[m.Name])
		}
		declared, values = sp.PerLayer, out.layer
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	for i, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("run %d: %s", i, p))
		}
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	var listed []map[string]any
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			if !o.traced {
				return nil, nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			// A layer this workload never reaches reads zero.
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		listed = append(listed, map[string]any{"name": m.Name, "unit": m.Unit, "value": v})
	}
	for m := range values {
		if _, ok := res.Metrics[m]; !ok {
			return nil, nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", m)
		}
	}

	why := ""
	for _, w := range sp.Workloads {
		if w.Name == name {
			why = w.Why
		}
	}
	rec := map[string]any{
		"workload": name,
		"why":      why,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.traced,
		"host":     host(),
		"correct":  res.Correct,
		"phases":   out.phases,
		"metrics":  listed,
		"notes":    out.notes,
	}
	if len(problems) > 0 {
		rec["problems"] = problems
	}
	if o.traced {
		rec["untraced_end_to_end"] = runs[1].e2e
		rec["traced_end_to_end"] = out.e2e
		rec["layer_map"] = layerMap
		rec["interactions"] = interactions
	}
	return res, rec, nil
}

// host records what the numbers were measured on.
func host() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
