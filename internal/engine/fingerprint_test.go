package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/mec"
	"repro/internal/pde"
)

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"regenerate testdata/fingerprints.json from the current solver (only for a deliberate change of the numerics)")

const fingerprintFile = "testdata/fingerprints.json"

// fingerprint is one whole-equilibrium record: the SHA-256 over every float
// of the solve's outputs, with the iteration count and convergence flag kept
// in the clear so a mismatch says whether the fixed point itself moved.
type fingerprint struct {
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
	SHA256     string `json:"sha256"`
}

// fingerprintConfigs span every solver path a configuration selects: the
// default grid, the MFG baseline without sharing, the advective FPK form,
// the explicit scheme and a second implicit grid.
var fingerprintConfigs = []struct {
	name string
	edit func(*Config)
}{
	{"default", func(*Config) {}},
	{"share-off", func(c *Config) { c.ShareEnabled = false }},
	{"advective", func(c *Config) { c.FPKForm = pde.Advective }},
	{"explicit-7x15x400", func(c *Config) { c.NH, c.NQ, c.Steps, c.Scheme = 7, 15, 400, "explicit" }},
	{"implicit-9x31x60", func(c *Config) { c.NH, c.NQ, c.Steps = 9, 31, 60 }},
}

// fingerprintWorkloads differ in every descriptor; the fractional timeliness
// exercises ξ^L off the integers.
var fingerprintWorkloads = []struct {
	name string
	w    Workload
}{
	{"w12", Workload{Requests: 12, Pop: 0.25, Timeliness: 3}},
	{"w25", Workload{Requests: 25, Pop: 0.8, Timeliness: 4.5}},
	{"w3", Workload{Requests: 3, Pop: 0.05, Timeliness: 1}},
}

// equilibriumHash hashes V, X, λ, RawMass, every snapshot field and the
// residual history as IEEE-754 bit words, then the iteration count and the
// convergence flag.
func equilibriumHash(eq *Equilibrium) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putPath := func(path [][]float64) {
		for _, level := range path {
			for _, v := range level {
				put(v)
			}
		}
	}
	putPath(eq.HJB.V)
	putPath(eq.HJB.X)
	putPath(eq.FPK.Lambda)
	for _, v := range eq.FPK.RawMass {
		put(v)
	}
	for _, s := range eq.Snapshots {
		for _, v := range []float64{s.T, s.MeanControl, s.Price, s.QBar, s.SharerFrac, s.Case3Frac, s.DeltaQ, s.ShareBenefit} {
			put(v)
		}
	}
	for _, v := range eq.Residuals {
		put(v)
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(eq.Iterations))
	h.Write(buf[:])
	if eq.Converged {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// solveFingerprints runs every workload of one configuration cold, then warm
// from the cold equilibrium of the next workload, on one reused session.
func solveFingerprints(t *testing.T, cfg Config) map[string]fingerprint {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	solve := func(w Workload, warm *Equilibrium) *Equilibrium {
		eq, err := s.Solve(w, warm)
		if err != nil && !(errors.Is(err, ErrNotConverged) && eq != nil) {
			t.Fatalf("solve %+v: %v", w, err)
		}
		return eq
	}
	out := make(map[string]fingerprint)
	record := func(key string, eq *Equilibrium) {
		out[key] = fingerprint{Iterations: eq.Iterations, Converged: eq.Converged, SHA256: equilibriumHash(eq)}
	}
	cold := make([]*Equilibrium, len(fingerprintWorkloads))
	for k, fw := range fingerprintWorkloads {
		cold[k] = solve(fw.w, nil)
		record(fw.name+"/cold", cold[k])
	}
	for k, fw := range fingerprintWorkloads {
		warm := cold[(k+1)%len(cold)]
		record(fw.name+"/warm", solve(fw.w, warm))
	}
	return out
}

// TestEquilibriumFingerprints pins whole equilibria bit for bit: every float
// the solver exports, for each configuration × workload, cold and
// warm-started. TestGoldenEquivalence bounds one configuration's V, x*, λ(T)
// and prices at 1e-12; this test admits no difference at all, so a change
// that reorders a floating-point expression anywhere in the solver fails it.
// The hashes hold for amd64, where the gc compiler never fuses a multiply
// and an add; other architectures may fuse them into FMA instructions and
// round differently.
func TestEquilibriumFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateFingerprints {
		t.Skipf("fingerprints are amd64 results; on %s the compiler may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	var want map[string]fingerprint
	if !*updateFingerprints {
		raw, err := os.ReadFile(fingerprintFile)
		if err != nil {
			t.Fatalf("read %s: %v (regenerate with -update-fingerprints)", fingerprintFile, err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("decode %s: %v", fingerprintFile, err)
		}
	}

	var mu sync.Mutex
	got := make(map[string]fingerprint)
	t.Run("configs", func(t *testing.T) {
		for _, fc := range fingerprintConfigs {
			fc := fc
			t.Run(fc.name, func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(mec.Default())
				fc.edit(&cfg)
				fps := solveFingerprints(t, cfg)
				mu.Lock()
				defer mu.Unlock()
				for key, fp := range fps {
					got[fc.name+"/"+key] = fp
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	if *updateFingerprints {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), fingerprintFile)
		return
	}
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		t.Errorf("solved %d cases, %s holds %d", len(got), fingerprintFile, len(want))
	}
	for _, key := range keys {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: not solved", key)
		case g != want[key]:
			t.Errorf("%s: got %d iterations, converged %v, sha256 %s; want %d, %v, %s",
				key, g.Iterations, g.Converged, g.SHA256, want[key].Iterations, want[key].Converged, want[key].SHA256)
		}
	}
}
