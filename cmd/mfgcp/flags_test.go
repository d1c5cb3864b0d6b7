package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFlags = flag.Bool("update-flags", false, "regenerate testdata/flags.txt from the current flag sets")

// flagSets names one invocation per FlagSet of the command: the experiment
// runner and every subcommand.
var flagSets = [][]string{
	{"all"}, {"solve"}, {"market"}, {"serve"}, {"precompute"}, {"verify"}, {"loadgen"}, {"manifests"},
}

// TestCLIFlagLock pins every FlagSet of the command to testdata/flags.txt,
// one line per flag: the set's name, then the flag's name, type, help text
// and default as `-h` prints them. A flag that appears, vanishes or changes
// its default fails this test until the golden file is regenerated with
//
//	go test ./cmd/mfgcp -run TestCLIFlagLock -update-flags
//
// so CLI changes are as deliberate and reviewable as the library changes
// TestPublicAPILock guards.
func TestCLIFlagLock(t *testing.T) {
	var lines []string
	for _, args := range flagSets {
		lines = append(lines, flagLines(t, args)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "flags.txt")
	if *updateFlags {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d flags)", golden, len(lines))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with -update-flags)", golden, err)
	}
	if got != string(want) {
		t.Errorf("CLI flag set changed; if intentional, regenerate with\n\n"+
			"\tgo test ./cmd/mfgcp -run TestCLIFlagLock -update-flags\n\n%s",
			lineDiff(string(want), got))
	}
}

// flagLines returns one line per flag of the FlagSet behind `mfgcp <args>`,
// parsed from the usage `-h` writes to standard error.
func flagLines(t *testing.T, args []string) []string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	stderr := os.Stderr
	os.Stderr = w
	runErr := run(append(append([]string(nil), args...), "-h"))
	os.Stderr = stderr
	w.Close()
	usage := <-out
	r.Close()
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("mfgcp %s -h: got error %v, want flag.ErrHelp", strings.Join(args, " "), runErr)
	}
	// PrintDefaults writes "  -name type" and then the help text, with the
	// default appended, on lines indented by "    \t" (or after a tab on
	// the same line for short names).
	var set string
	var lines []string
	for _, l := range strings.Split(usage, "\n") {
		switch {
		case strings.HasPrefix(l, "Usage of "):
			set = strings.TrimSuffix(strings.TrimPrefix(l, "Usage of "), ":")
		case strings.HasPrefix(l, "  -"):
			name, help, _ := strings.Cut(strings.TrimPrefix(l, "  "), "\t")
			lines = append(lines, set+" "+name+": "+help)
		case strings.HasPrefix(l, "    \t") && len(lines) > 0:
			lines[len(lines)-1] += strings.TrimPrefix(l, "    \t")
		}
	}
	return lines
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
