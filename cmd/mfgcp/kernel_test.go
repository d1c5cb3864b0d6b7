package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	mfgcp "repro"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/surrogate"
)

// kernelSetting is one value of the deprecated kernel block, with the scheme
// it is combined with and, for a value validation rejects, a substring of
// the error.
type kernelSetting struct {
	workers   int
	precision string
	scheme    string
	reject    string
}

func (ks kernelSetting) String() string {
	return fmt.Sprintf("workers=%d,precision=%s,scheme=%s", ks.workers, ks.precision, ks.scheme)
}

// flags renders the setting as command-line flags; nil renders none.
func (ks *kernelSetting) flags() []string {
	if ks == nil {
		return nil
	}
	args := []string{"-kernel-workers", strconv.Itoa(ks.workers), "-precision", ks.precision}
	if ks.scheme != "" {
		args = append(args, "-scheme", ks.scheme)
	}
	return args
}

// fingerprint serialises every number of an equilibrium bit-exactly. The
// Config is left out: it records the kernel block itself.
func fingerprint(t *testing.T, eq *engine.Equilibrium) []byte {
	t.Helper()
	var b bytes.Buffer
	write := func(v any) {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	write(int64(eq.Iterations))
	write(eq.Converged)
	write(eq.Residuals)
	write(eq.Snapshots)
	for n := range eq.HJB.V {
		write(eq.HJB.V[n])
		write(eq.HJB.X[n])
	}
	for _, l := range eq.FPK.Lambda {
		write(l)
	}
	return b.Bytes()
}

// TestDeprecatedKernelSurfaces walks every deprecated kernel surface: the
// WithKernel option, the solver-JSON Kernel field, and the -kernel-workers
// and -precision flags of solve, market, precompute and serve. Each one
// rejects exactly what it rejected before, and every value it accepts gives
// a result bit-identical to the run without it.
func TestDeprecatedKernelSurfaces(t *testing.T) {
	const grid = `"NH": 5, "NQ": 21, "Steps": 30`
	base, err := mfgcp.NewSolverConfig(mfgcp.DefaultParams(), mfgcp.WithGrid(5, 21, 30))
	if err != nil {
		t.Fatal(err)
	}
	solved := func(t *testing.T, cfg mfgcp.SolverConfig, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		eq, err := mfgcp.SolveEquilibrium(cfg, mfgcp.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
		if err != nil {
			return nil, err
		}
		return fingerprint(t, eq), nil
	}

	surfaces := []struct {
		name string
		// run produces the surface's result under ks; nil ks leaves the
		// kernel block unset.
		run func(t *testing.T, ks *kernelSetting) ([]byte, error)
	}{
		{"WithKernel", func(t *testing.T, ks *kernelSetting) ([]byte, error) {
			if ks == nil {
				return solved(t, base, nil)
			}
			cfg, err := mfgcp.ApplySolveOptions(base, mfgcp.WithScheme(ks.scheme), mfgcp.WithKernel(ks.workers, ks.precision))
			return solved(t, cfg, err)
		}},
		{"JSON Kernel", func(t *testing.T, ks *kernelSetting) ([]byte, error) {
			doc := `{}`
			if ks != nil {
				doc = fmt.Sprintf(`{"Scheme": %q, "Kernel": {"Workers": %d, "Precision": %q}}`, ks.scheme, ks.workers, ks.precision)
			}
			cfg, err := engine.DecodeConfig([]byte(doc), base)
			return solved(t, cfg, err)
		}},
		{"solve flags", func(t *testing.T, ks *kernelSetting) ([]byte, error) {
			archive := filepath.Join(t.TempDir(), "eq.gob")
			args := append([]string{"solve", "-nh", "5", "-nq", "21", "-steps", "30", "-save", archive}, ks.flags()...)
			if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
				return nil, err
			}
			f, err := os.Open(archive)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			eq, err := mfgcp.ReadEquilibrium(f)
			if err != nil {
				return nil, err
			}
			return fingerprint(t, eq), nil
		}},
		{"market flags", func(t *testing.T, ks *kernelSetting) ([]byte, error) {
			// The epoch-boundary checkpoint holds every EDP's state and
			// ledger at full precision.
			dir := t.TempDir()
			args := append([]string{"market", "-policy", "mfg-cp", "-m", "8", "-k", "3", "-epochs", "1", "-steps", "8",
				"-checkpoint", dir}, ks.flags()...)
			if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
				return nil, err
			}
			ck, err := sim.LoadCheckpoint(dir)
			if err != nil {
				return nil, err
			}
			return fmt.Appendf(nil, "%v %v", ck.Agents, ck.Ledgers), nil
		}},
		{"precompute flags", func(t *testing.T, ks *kernelSetting) ([]byte, error) {
			dir := t.TempDir()
			cfgPath, tabPath := filepath.Join(dir, "precompute.json"), filepath.Join(dir, "table.mfgt")
			if err := os.WriteFile(cfgPath, []byte(`{"Solver": {`+grid+`}}`), 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"precompute", "-config", cfgPath, "-out", tabPath,
				"-requests", "8:12:2", "-pop", "0.3", "-timeliness", "2", "-workers", "1"}, ks.flags()...)
			if _, err := captureStdout(t, func() error { return run(args) }); err != nil {
				return nil, err
			}
			tab, err := surrogate.Load(tabPath)
			if err != nil {
				return nil, err
			}
			tab.Config.Kernel = engine.KernelConfig{} // the table records the flags it was built with
			return tab.Encode()
		}},
		{"serve flags", func(t *testing.T, ks *kernelSetting) ([]byte, error) {
			// serve has no -scheme flag; the scheme comes from -config.
			var scheme string
			var flags []string
			if ks != nil {
				scheme = ks.scheme
				flags = []string{"-kernel-workers", strconv.Itoa(ks.workers), "-precision", ks.precision}
			}
			cfgPath := filepath.Join(t.TempDir(), "serve.json")
			doc := fmt.Sprintf(`{"Solver": {%s, "Scheme": %q}}`, grid, scheme)
			if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			addr := freePort(t)
			args := append([]string{"serve", "-addr", addr, "-config", cfgPath}, flags...)
			if ks != nil && ks.reject != "" {
				return nil, run(args) // validation fails before the daemon listens
			}
			done := make(chan error, 1)
			go func() { done <- run(args) }()
			base := "http://" + addr
			waitReady(t, base)
			resp, err := http.Post(base+"/v1/solve", "application/json",
				strings.NewReader(`{"Workload": {"Requests": 10, "Pop": 0.3, "Timeliness": 2}}`))
			var body []byte
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d body %s", resp.StatusCode, body)
				}
			}
			if kerr := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); kerr != nil {
				t.Fatal(kerr)
			}
			select {
			case derr := <-done:
				if derr != nil {
					t.Fatalf("serve returned %v after SIGTERM", derr)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("serve did not exit after SIGTERM")
			}
			return body, err
		}},
	}

	settings := []kernelSetting{
		{workers: 4},
		{precision: "float64"},
		{workers: 2, precision: "float32"},
		{workers: -1, reject: "kernel workers must be ≥ 0"},
		{precision: "float16", reject: "unknown kernel precision"},
		{precision: "float32", scheme: "explicit", reject: "implicit scheme only"},
	}
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			want, err := s.run(t, nil)
			if err != nil {
				t.Fatalf("without the kernel block: %v", err)
			}
			for _, ks := range settings {
				got, err := s.run(t, &ks)
				switch {
				case ks.reject != "":
					if err == nil || !strings.Contains(err.Error(), ks.reject) {
						t.Errorf("%v: got error %v, want one containing %q", ks, err, ks.reject)
					}
				case err != nil:
					t.Errorf("%v: rejected: %v", ks, err)
				case !bytes.Equal(got, want):
					t.Errorf("%v: result differs from the run without the kernel block", ks)
				}
			}
		})
	}
}
