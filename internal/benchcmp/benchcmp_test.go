package benchcmp

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Example CPU
BenchmarkHJBSolve-8         	     100	    120000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkFPKSolve-8         	     200	     60000 ns/op
BenchmarkEquilibriumSolve-8 	      10	   1500000 ns/op	       0 B/op	       0 allocs/op
BenchmarkHJBSolve-8         	     120	    110000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkHJBSolve-8         	     100	    190000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkHJBSolve-8         	     120	    100000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkHJBSolve-8         	     120	    115000 ns/op	    2048 B/op	      12 allocs/op
PASS
ok  	repro	3.456s
`

func TestParse(t *testing.T) {
	run, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if want := "linux/amd64, Example CPU, GOMAXPROCS 8"; run.Host != want {
		t.Errorf("host = %q, want %q", run.Host, want)
	}
	results := run.Results
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	byName := make(map[string]Result)
	for _, r := range results {
		byName[r.Name] = r
	}
	// The median of five runs, not the fastest (100000) and not moved by the
	// slow outlier (190000); the quartiles are the second and fourth runs.
	hjb := byName["BenchmarkHJBSolve"]
	if hjb.NsPerOp != 115000 || hjb.Q1NsPerOp != 110000 || hjb.Q3NsPerOp != 120000 || hjb.Runs != 5 {
		t.Errorf("HJBSolve = %+v, want median 115000, quartiles 110000/120000 over 5 runs", hjb)
	}
	if got, want := hjb.Spread(), 10000.0/115000; got != want {
		t.Errorf("HJBSolve spread = %g, want %g", got, want)
	}
	if hjb.BytesPerOp != 2048 || hjb.AllocsPerOp != 12 {
		t.Errorf("HJBSolve alloc stats = %g B / %g allocs", hjb.BytesPerOp, hjb.AllocsPerOp)
	}
	if fpk := byName["BenchmarkFPKSolve"]; fpk.NsPerOp != 60000 || fpk.Runs != 1 || fpk.Spread() != 0 {
		t.Errorf("FPKSolve missing or wrong: %+v", fpk)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := NewBaseline("test", []Result{
		{Name: "BenchmarkA", NsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 100},
	})
	current := []Result{
		{Name: "BenchmarkA", NsPerOp: 120}, // +20% > 15%: regressed
		{Name: "BenchmarkB", NsPerOp: 108}, // +8%: within noise
		{Name: "BenchmarkNew", NsPerOp: 50},
	}
	deltas := Compare(base, current, 0.15)
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4: %+v", len(deltas), deltas)
	}
	regs := Regressions(deltas)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want A and Gone: %+v", len(regs), regs)
	}
	names := map[string]bool{}
	for _, d := range regs {
		names[d.Name] = true
	}
	if !names["BenchmarkA"] || !names["BenchmarkGone"] {
		t.Errorf("wrong regression set: %+v", regs)
	}

	var buf bytes.Buffer
	Format(&buf, deltas)
	out := buf.String()
	for _, want := range []string{"REGRESSED", "MISSING", "NEW", "BenchmarkB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	base := NewBaseline("round trip", []Result{{Name: "BenchmarkX", NsPerOp: 42, AllocsPerOp: 1}})
	if err := base.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != "round trip" || got.Benchmarks["BenchmarkX"].NsPerOp != 42 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestParseRejectsNothingSilently(t *testing.T) {
	run, err := Parse(strings.NewReader("no benchmarks here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 0 {
		t.Fatalf("parsed phantom results: %+v", run.Results)
	}
}
