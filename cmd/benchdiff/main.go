// Command benchdiff compares `go test -bench` output against the stored
// baseline (BENCH_baseline.json), flagging median ns/op regressions beyond a
// relative threshold. Repeated runs of a benchmark (`-count N`) are
// summarised by their median, and the table prints each side's
// interquartile spread beside the change.
//
// Usage:
//
//	go test -run xxx -bench . -count 5 ./... | benchdiff -baseline BENCH_baseline.json
//	benchdiff -baseline BENCH_baseline.json bench-output.txt
//	go test -run xxx -bench . -count 5 . | benchdiff -baseline BENCH_baseline.json -update
//
// -update records the host from the run's goos/goarch/cpu headers and its
// GOMAXPROCS, plus the Go version benchdiff itself was built with (the same
// toolchain under `go run`). benchdiff exits 1 when a benchmark's median
// slowed by more than -threshold (or it vanished from the run). The CI bench
// job runs it with continue-on-error: cross-host timing variance makes the
// comparison advisory, not a gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/benchcmp"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "baseline JSON file")
	threshold := fs.Float64("threshold", 0.15, "relative slowdown of the median ns/op that flags a regression")
	update := fs.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	note := fs.String("note", "", "provenance note stored with -update")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *threshold <= 0 {
		return fmt.Errorf("threshold must be positive, got %g", *threshold)
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	current, err := benchcmp.Parse(in)
	if err != nil {
		return err
	}
	if len(current.Results) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}

	if *update {
		b := benchcmp.NewBaseline(*note, current.Results)
		b.Host = current.Host
		if b.Host != "" {
			b.Host += ", "
		}
		b.Host += runtime.Version()
		if err := b.Write(*baselinePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "baseline %s updated with %d benchmarks\n", *baselinePath, len(current.Results))
		return nil
	}

	base, err := benchcmp.LoadBaseline(*baselinePath)
	if err != nil {
		return err
	}
	if base.Host != "" {
		fmt.Fprintf(stdout, "baseline host: %s\ncurrent host:  %s\n", base.Host, current.Host)
	}
	deltas := benchcmp.Compare(base, current.Results, *threshold)
	benchcmp.Format(stdout, deltas)
	if regs := benchcmp.Regressions(deltas); len(regs) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% (advisory: re-run or compare on the baseline host class)",
			len(regs), 100**threshold)
	}
	fmt.Fprintln(stdout, "no regressions beyond threshold")
	return nil
}
