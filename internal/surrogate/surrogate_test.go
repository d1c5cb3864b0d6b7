package surrogate

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/mec"
)

// buildConfig is a cheap but real sweep configuration: a coarse grid that
// converges in a few iterations, a 2×2 lattice over (Requests, Pop) with
// Timeliness frozen — 4 node solves plus 1 midpoint solve.
func buildConfig() BuildConfig {
	cfg := engine.DefaultConfig(mec.Default())
	cfg.NH, cfg.NQ, cfg.Steps = 5, 15, 16
	return BuildConfig{
		Config:     cfg,
		Requests:   AxisSpec{Min: 8, Max: 12, N: 2},
		Pop:        AxisSpec{Min: 0.2, Max: 0.4, N: 2},
		Timeliness: AxisSpec{Min: 2, N: 1},
		Workers:    2,
	}
}

// builtTable memoises one real Build across the tests in this package.
var builtTable *Table

func testTable(t *testing.T) *Table {
	t.Helper()
	if builtTable != nil {
		return builtTable
	}
	tab, err := Build(context.Background(), buildConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	builtTable = tab
	return tab
}

func TestBuildProducesConsistentTable(t *testing.T) {
	tab := testTable(t)
	if err := tab.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(tab.Nodes); got != 4 {
		t.Fatalf("node count = %d, want 4", got)
	}
	if got := len(tab.Bounds); got != 1 {
		t.Fatalf("cell count = %d, want 1", got)
	}
	for i, n := range tab.Nodes {
		if !n.Converged {
			t.Fatalf("node %d did not converge", i)
		}
	}
	if b := tab.Bounds[0]; math.IsInf(b, 1) || b <= 0 {
		t.Fatalf("cell bound = %g, want finite positive", b)
	}
	if tab.SafetyFactor != 2 {
		t.Fatalf("SafetyFactor defaulted to %g, want 2", tab.SafetyFactor)
	}
	if tab.BaseKey != engine.CacheKey(tab.Config, engine.Workload{}) {
		t.Fatal("BaseKey does not match the config-only cache key")
	}
}

func TestLookupInteriorAndTrustRegion(t *testing.T) {
	tab := testTable(t)
	cfg := tab.Config
	in := engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}

	sum, ok := tab.Lookup(cfg, in)
	if !ok {
		t.Fatal("interior workload rejected")
	}
	if sum.ErrorBound != tab.Bounds[0] {
		t.Fatalf("ErrorBound = %g, want the cell bound %g", sum.ErrorBound, tab.Bounds[0])
	}
	if len(sum.Price) != len(tab.Time) || len(sum.MeanControl) != len(tab.Time) {
		t.Fatal("summary series do not match the table's time grid")
	}
	// Interpolation at a lattice corner must reproduce the corner node.
	corner := engine.Workload{Requests: tab.Axes[0].Nodes[0], Pop: tab.Axes[1].Nodes[0], Timeliness: 2}
	cs, ok := tab.Lookup(cfg, corner)
	if !ok {
		t.Fatal("lattice corner rejected")
	}
	for j := range tab.Time {
		if math.Abs(cs.Price[j]-tab.Nodes[0].Price[j]) > 1e-12 {
			t.Fatalf("corner price[%d] = %g, node has %g", j, cs.Price[j], tab.Nodes[0].Price[j])
		}
	}

	cases := []struct {
		name string
		cfg  engine.Config
		w    engine.Workload
	}{
		{"requests out of range", cfg, engine.Workload{Requests: 20, Pop: 0.3, Timeliness: 2}},
		{"pop out of range", cfg, engine.Workload{Requests: 10, Pop: 0.9, Timeliness: 2}},
		{"frozen axis mismatch", cfg, engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 3}},
		{"different config", func() engine.Config {
			c := cfg
			c.Tol = cfg.Tol / 2
			return c
		}(), in},
		{"bound over request limit", func() engine.Config {
			c := cfg
			c.Surrogate.MaxErrorBound = tab.Bounds[0] / 2
			return c
		}(), in},
	}
	for _, tc := range cases {
		if _, ok := tab.Lookup(tc.cfg, tc.w); ok {
			t.Errorf("%s: lookup accepted, want fall-through", tc.name)
		}
	}

	// A request-level limit above the declared bound still accepts, and a
	// Surrogate config difference alone must not change the base key.
	loose := cfg
	loose.Surrogate = engine.SurrogateConfig{Path: "/elsewhere", MaxErrorBound: tab.Bounds[0] * 10}
	if _, ok := tab.Lookup(loose, in); !ok {
		t.Fatal("loose MaxErrorBound rejected an in-bound cell")
	}
}

func TestFrozenAxisMismatchVsQuantisedMatch(t *testing.T) {
	tab := testTable(t)
	w := engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2 + 1e-13}
	// Sub-quantum jitter on the frozen axis still matches the node.
	if _, ok := tab.Lookup(tab.Config, w); !ok {
		t.Fatal("sub-quantum jitter on frozen axis rejected")
	}
	w.Timeliness = 2.001
	if _, ok := tab.Lookup(tab.Config, w); ok {
		t.Fatal("real perturbation on frozen axis accepted")
	}
}

func TestMidpointErrorWithinDeclaredBound(t *testing.T) {
	if testing.Short() {
		t.Skip("midpoint solve in -short mode")
	}
	tab := testTable(t)
	mid := tab.cellMidpoint([3]int{0, 0, 0})
	sess, err := engine.NewSession(tab.Config)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	eq, err := sess.Solve(mid, nil)
	if err != nil {
		t.Fatalf("midpoint solve: %v", err)
	}
	got, err := tab.SummaryError(mid, eq)
	if err != nil {
		t.Fatalf("SummaryError: %v", err)
	}
	// Build declared SafetyFactor × this exact measurement.
	if got > tab.Bounds[0] {
		t.Fatalf("midpoint error %g exceeds declared bound %g", got, tab.Bounds[0])
	}
	if got < tab.Bounds[0]/tab.SafetyFactor*0.99 {
		t.Fatalf("midpoint error %g is not ~bound/safety (%g): measurement drifted", got, tab.Bounds[0]/tab.SafetyFactor)
	}
}

func TestNonConvergedCornerPoisonsCell(t *testing.T) {
	tab := testTable(t)
	clone := *tab
	clone.Nodes = append([]Node(nil), tab.Nodes...)
	clone.Bounds = append([]float64(nil), tab.Bounds...)
	clone.Nodes[0].Converged = false
	clone.Bounds[0] = math.Inf(1)
	if _, ok := clone.Lookup(clone.Config, engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}); ok {
		t.Fatal("lookup accepted a cell with an infinite bound")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tab := testTable(t)
	path := filepath.Join(t.TempDir(), "table.mfgt")
	if err := tab.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.BaseKey != tab.BaseKey {
		t.Fatal("round trip changed the base key")
	}
	if len(got.Nodes) != len(tab.Nodes) || len(got.Bounds) != len(tab.Bounds) {
		t.Fatal("round trip changed the lattice shape")
	}
	for j := range tab.Time {
		if got.Nodes[0].Price[j] != tab.Nodes[0].Price[j] {
			t.Fatalf("round trip changed node 0 price[%d]", j)
		}
	}
	sum, ok := got.Lookup(got.Config, engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
	if !ok || sum.ErrorBound != tab.Bounds[0] {
		t.Fatal("loaded table does not answer like the built one")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tab := testTable(t)
	good, err := tab.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:tableHeader-2] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"future version", func(b []byte) []byte { b[4] = tableVersion + 1; return b }},
		{"flipped payload bit", func(b []byte) []byte { b[tableHeader+10] ^= 0x40; return b }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-7] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xaa) }},
	}
	for _, tc := range cases {
		data := tc.mutate(append([]byte(nil), good...))
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", tc.name)
		}
	}
	if _, err := Decode(append([]byte(nil), good...)); err != nil {
		t.Fatalf("pristine copy rejected: %v", err)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	tab := testTable(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "table.mfgt")
	if err := tab.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %v (err %v), want the table alone", entries, err)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Errorf("table mode %v (err %v), want 0644", info.Mode(), err)
	}
}

// TestConcurrentSavesPublishWholeTables saves one table to one path from four
// goroutines at once, round after round: every save succeeds, the table at
// the path always decodes, and no temp file is left behind.
func TestConcurrentSavesPublishWholeTables(t *testing.T) {
	tab := testTable(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.mfgt")
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = tab.Save(path)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: save %d: %v", round, i, err)
			}
		}
		if _, err := Load(path); err != nil {
			t.Fatalf("round %d: the saved table does not load: %v", round, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %v (err %v), want the table alone", entries, err)
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	base := buildConfig()
	cases := []struct {
		name   string
		mutate func(*BuildConfig)
	}{
		{"zero nodes", func(b *BuildConfig) { b.Requests.N = 0 }},
		{"inverted range", func(b *BuildConfig) { b.Pop = AxisSpec{Min: 0.5, Max: 0.2, N: 3} }},
		{"non-finite bound", func(b *BuildConfig) { b.Requests.Max = math.Inf(1) }},
		{"safety below one", func(b *BuildConfig) { b.SafetyFactor = 0.5 }},
		{"workload out of model range", func(b *BuildConfig) { b.Pop = AxisSpec{Min: 0.5, Max: 1.5, N: 2} }},
	}
	for _, tc := range cases {
		bc := base
		tc.mutate(&bc)
		if _, err := Build(context.Background(), bc); err == nil {
			t.Errorf("%s: Build accepted", tc.name)
		}
	}
}

// TestBuildReportsLowestFailingNode makes two lattice nodes diverge (a tight
// blow-up threshold trips on the high-demand nodes 2 and 3 of four) and
// requires Build to report the lower one, the failure a sequential sweep
// meets first, whatever the pool size.
func TestBuildReportsLowestFailingNode(t *testing.T) {
	for _, workers := range []int{1, 4} {
		bc := buildConfig()
		bc.Config.BlowupResidual = 0.5
		bc.Requests = AxisSpec{Min: 0, Max: 12, N: 4}
		bc.Pop = AxisSpec{Min: 0.3, N: 1}
		bc.Workers = workers
		_, err := Build(context.Background(), bc)
		if !errors.Is(err, engine.ErrDiverged) || !strings.Contains(err.Error(), "{Requests:8 ") {
			t.Errorf("Workers %d: Build returned %v, want node 2's (Requests 8) divergence", workers, err)
		}
	}
}

func TestQuantiseMatchesCacheKeyQuantum(t *testing.T) {
	// Two values that collide at 9 significant digits must quantise equally.
	a, b := 10.0000000001, 10.0000000002
	if Quantise(a) != Quantise(b) {
		t.Fatal("sub-quantum values did not collapse")
	}
	if Quantise(10.0001) == Quantise(10.0002) {
		t.Fatal("distinct values collapsed")
	}
}

// FuzzTableDecode pins the loader's hostile-input contract: Decode never
// panics, and whatever it accepts re-encodes.
func FuzzTableDecode(f *testing.F) {
	cfg := engine.DefaultConfig(mec.Default())
	cfg.NH, cfg.NQ, cfg.Steps = 5, 15, 16
	tab := &Table{
		BaseKey: engine.CacheKey(cfg, engine.Workload{}),
		Config:  cfg,
		Axes: [3]Axis{
			{Name: "Requests", Nodes: []float64{8, 12}},
			{Name: "Pop", Nodes: []float64{0.2}},
			{Name: "Timeliness", Nodes: []float64{2}},
		},
		Time:         []float64{0, 1},
		SafetyFactor: 2,
		Bounds:       []float64{0.25},
	}
	tab.Nodes = make([]Node, 2)
	for i := range tab.Nodes {
		tab.Nodes[i] = Node{
			Converged:     true,
			Price:         []float64{1, 2},
			MeanControl:   []float64{0.1, 0.2},
			MeanRemaining: []float64{3, 2},
			SharerFrac:    []float64{0, 0.5},
		}
	}
	if good, err := tab.Encode(); err == nil {
		f.Add(good)
		f.Add(good[:tableHeader])
		f.Add(good[:len(good)-3])
	} else {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x47, 0x46, 0x4d, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Decode(data)
		if err != nil {
			return
		}
		if tab == nil {
			t.Fatal("Decode returned nil table without error")
		}
		if _, err := tab.Encode(); err != nil {
			t.Fatalf("accepted table does not re-encode: %v", err)
		}
	})
}
