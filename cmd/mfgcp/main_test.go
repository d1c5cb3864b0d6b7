package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
}

func TestRunMissingArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no arguments should error")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"not-an-experiment", "-quick"}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"fig3", "-quick", "-csv", dir}); err != nil {
		t.Fatalf("fig3: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig3_*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Error("no CSV artefacts written")
	}
	for _, m := range matches {
		info, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", m)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"fig3", "-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag should error")
	}
}

func TestSolveSubcommand(t *testing.T) {
	dir := t.TempDir()
	save := filepath.Join(dir, "eq.bin")
	args := []string{"solve", "-nh", "5", "-nq", "21", "-steps", "30",
		"-csv", dir, "-save", save}
	if err := run(args); err != nil {
		t.Fatalf("solve: %v", err)
	}
	for _, name := range []string{"solve_strategy.csv", "solve_density.csv", "solve_market.csv"} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	if info, err := os.Stat(save); err != nil || info.Size() == 0 {
		t.Errorf("equilibrium archive missing or empty: %v", err)
	}
}

func TestSolveSubcommandOverrides(t *testing.T) {
	if err := run([]string{"solve", "-nh", "5", "-nq", "21", "-steps", "30",
		"-no-share", "-eta1", "0.003", "-qk", "80", "-init-mean", "0.6"}); err != nil {
		t.Fatalf("solve with overrides: %v", err)
	}
	// Undefined flags fail, among them the retired -kernel-workers.
	for _, args := range [][]string{
		{"solve", "-bogus-flag"},
		{"solve", "-kernel-workers", "2"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v: bad solve flag should error", args)
		}
	}
}

func TestMarketSubcommand(t *testing.T) {
	if err := run([]string{"market", "-policy", "rr", "-m", "8", "-k", "3",
		"-epochs", "1", "-steps", "8"}); err != nil {
		t.Fatalf("market: %v", err)
	}
	if err := run([]string{"market", "-policy", "mpc", "-m", "8", "-k", "3",
		"-epochs", "1", "-steps", "8", "-requesters", "20", "-exact-interference"}); err != nil {
		t.Fatalf("market with requesters: %v", err)
	}
	if err := run([]string{"market", "-policy", "nonsense"}); err == nil {
		t.Error("unknown policy should error")
	}
	if err := run([]string{"market", "-bad-flag"}); err == nil {
		t.Error("bad flag should error")
	}
}
