package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/benchcmp"
)

const benchOutput = `BenchmarkHJBSolve-8     100     120000 ns/op
BenchmarkFPKSolve-8     200      60000 ns/op
PASS
`

func TestBenchdiffUpdateThenCompare(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")

	var out bytes.Buffer
	if err := run([]string{"-baseline", baseline, "-update", "-note", "test host"},
		strings.NewReader(benchOutput), &out); err != nil {
		t.Fatalf("update: %v", err)
	}
	base, err := benchcmp.LoadBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if base.Note != "test host" || !strings.Contains(base.Host, runtime.Version()) {
		t.Errorf("baseline provenance: note %q, host %q; want the note and the Go version", base.Note, base.Host)
	}

	// Identical numbers: no regression.
	out.Reset()
	if err := run([]string{"-baseline", baseline},
		strings.NewReader(benchOutput), &out); err != nil {
		t.Fatalf("self-compare flagged a regression: %v\n%s", err, out.String())
	}

	// 50% slower HJB solve: flagged, non-zero exit.
	slow := strings.Replace(benchOutput, "120000", "180000", 1)
	out.Reset()
	if err := run([]string{"-baseline", baseline}, strings.NewReader(slow), &out); err == nil {
		t.Fatalf("50%% slowdown not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("table does not mark the regression:\n%s", out.String())
	}

	// A raised threshold tolerates it.
	out.Reset()
	if err := run([]string{"-baseline", baseline, "-threshold", "0.6"},
		strings.NewReader(slow), &out); err != nil {
		t.Fatalf("60%% threshold still flagged: %v", err)
	}
}

func TestBenchdiffInputErrors(t *testing.T) {
	if err := run([]string{"-baseline", "/does/not/exist.json"},
		strings.NewReader(benchOutput), &bytes.Buffer{}); err == nil {
		t.Error("missing baseline accepted")
	}
	baseline := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(baseline, []byte(`{"benchmarks":{"BenchmarkX":{"name":"BenchmarkX","ns_per_op":1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-baseline", baseline},
		strings.NewReader("no benchmarks"), &bytes.Buffer{}); err == nil {
		t.Error("empty input accepted")
	}
	if err := run([]string{"-threshold", "-1"},
		strings.NewReader(benchOutput), &bytes.Buffer{}); err == nil {
		t.Error("negative threshold accepted")
	}
}
