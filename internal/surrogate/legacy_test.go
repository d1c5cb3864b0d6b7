package surrogate

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// TestDecodeStateWrittenWithKernelBlock reads persisted state written by a
// build whose engine.Config still had the retired Kernel block, set to
// {Workers: 2, Precision: "float64"} so gob carried it: one
// engine.MarshalEquilibrium blob (the format of store records, peer-fill
// bodies and checkpoint cache blobs) and one surrogate table, both on a
// 5×11×12 grid. keys.json records the engine.CacheKey that build computed
// for each. Both must still decode and resolve to the same keys, so a
// rolling upgrade keeps every store record and table it already has.
func TestDecodeStateWrittenWithKernelBlock(t *testing.T) {
	dir := filepath.Join("testdata", "kernel_block")
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var keys struct{ Equilibrium, Table string }
	if err := json.Unmarshal(read("keys.json"), &keys); err != nil {
		t.Fatal(err)
	}

	eq, err := engine.UnmarshalEquilibrium(read("equilibrium.gob"))
	if err != nil {
		t.Fatalf("decode equilibrium: %v", err)
	}
	if got := engine.CacheKey(eq.Config, eq.Workload); got != keys.Equilibrium {
		t.Errorf("equilibrium key changed:\n got %s\nwant %s", got, keys.Equilibrium)
	}
	if !eq.Converged || eq.HJB == nil || eq.FPK == nil {
		t.Errorf("decoded equilibrium incomplete: converged=%v", eq.Converged)
	}

	tab, err := Decode(read("table.mfgt"))
	if err != nil {
		t.Fatalf("decode table: %v", err)
	}
	if got := engine.CacheKey(tab.Config, engine.Workload{}); got != keys.Table {
		t.Errorf("table key changed:\n got %s\nwant %s", got, keys.Table)
	}
	if tab.BaseKey != keys.Table {
		t.Errorf("table BaseKey %s, want %s", tab.BaseKey, keys.Table)
	}
}
