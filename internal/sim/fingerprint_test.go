package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/mec"
	"repro/internal/policy"
)

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"regenerate testdata/market_fingerprints.json from the current simulator (only for a deliberate change of the market numerics)")

const marketFingerprintFile = "testdata/market_fingerprints.json"

// marketFingerprintConfigs cover every branch of the step loop that a
// configuration selects: homogeneous demand, the requester level (per-EDP
// timeliness and per-link rates), the exact-interference rate ablation, a
// fault plan that churns EDPs and drops shares, and per-EDP Poisson demand.
var marketFingerprintConfigs = []struct {
	name string
	edit func(*Config)
}{
	{"default", func(*Config) {}},
	{"requesters", func(c *Config) {
		c.Requesters = RequesterConfig{J: 90, Speed: 4, RequestsPerRequester: 12, TimelinessNoise: 0.4}
	}},
	{"exact-interference", func(c *Config) { c.ExactInterference = true }},
	{"faults", func(c *Config) { c.Faults = &FaultPlan{Seed: 9, EDPChurn: 0.3, DropShare: 0.4} }},
	{"heterogeneous", func(c *Config) { c.HeterogeneousDemand = true }},
}

// fingerprintMarketConfig is a small MFG-CP market: 40 EDPs, 6 contents and
// 3 epochs, so warm-started solves and every service case take part.
func fingerprintMarketConfig() Config {
	p := mec.Default()
	p.M = 40
	p.K = 6
	cfg := DefaultConfig(p, policy.NewMFGCP())
	cfg.Epochs = 3
	return cfg
}

// marketHash hashes, as IEEE-754 bit words, every float of each epoch's
// statistics (all but the wall-clock StrategyTime), every ledger entry, and
// the final cache and channel states.
func marketHash(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, es := range res.Stats {
		binary.LittleEndian.PutUint64(buf[:], uint64(es.Epoch))
		h.Write(buf[:])
		for _, v := range []float64{es.MeanUtility, es.MeanTrading, es.MeanSharing, es.MeanStale, es.MeanPrice, es.MeanRate, es.MeanRemain} {
			put(v)
		}
	}
	for _, l := range res.Ledgers {
		for _, v := range []float64{l.Trading, l.Sharing, l.Placement, l.Staleness, l.ShareCost} {
			put(v)
		}
	}
	for _, q := range res.FinalQ {
		for _, v := range q {
			put(v)
		}
	}
	for _, v := range res.FinalH {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMarketFingerprints pins whole market runs bit for bit: a change that
// reorders a floating-point expression or a random draw anywhere in the step
// loop, the policy or the solver fails it. TestRunDeterministic only compares
// two runs of the same build. Like the engine's equilibrium fingerprints, the
// hashes are amd64 results: other architectures may fuse multiply-adds.
func TestMarketFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateFingerprints {
		t.Skipf("market fingerprints are amd64 results; on %s the compiler may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	var want map[string]string
	if !*updateFingerprints {
		raw, err := os.ReadFile(marketFingerprintFile)
		if err != nil {
			t.Fatalf("read %s: %v (regenerate with -update-fingerprints)", marketFingerprintFile, err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("decode %s: %v", marketFingerprintFile, err)
		}
	}

	var mu sync.Mutex
	got := make(map[string]string)
	t.Run("configs", func(t *testing.T) {
		for _, fc := range marketFingerprintConfigs {
			fc := fc
			t.Run(fc.name, func(t *testing.T) {
				t.Parallel()
				cfg := fingerprintMarketConfig()
				fc.edit(&cfg)
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				mu.Lock()
				defer mu.Unlock()
				got[fc.name] = marketHash(res)
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
		if err := os.WriteFile(marketFingerprintFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), marketFingerprintFile)
		return
	}
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		t.Errorf("ran %d markets, %s holds %d", len(got), marketFingerprintFile, len(want))
	}
	for _, key := range keys {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: not run", key)
		case g != want[key]:
			t.Errorf("%s: sha256 %s, want %s", key, g, want[key])
		}
	}
}
