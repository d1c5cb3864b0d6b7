package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mec"
)

// seedCorpus adds the testdata seed document plus the structural edge cases
// every decoder must survive: empty, sparse, invalid value, unknown key,
// non-JSON bytes.
func seedCorpus(f *testing.F, seedFile string) {
	data, err := os.ReadFile(filepath.Join("testdata", seedFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Qk": -1}`))
	f.Add([]byte(`{"Unknown": 1}`))
	f.Add([]byte(`{"Qk": 1e999}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
}

// FuzzDecodeParams pins the external-input contract of a request's Params
// section: whatever bytes arrive (HTTP bodies, -config files), Resolve either
// errors or returns a parameter set that passes Validate — never a panic,
// never NaN/Inf smuggled past the merge — and the accepted result re-encodes
// and re-decodes to itself (the merge is idempotent on its own output).
func FuzzDecodeParams(f *testing.F) {
	seedCorpus(f, "fuzz_params_seed.json")
	base := DefaultConfig(mec.Default())
	decode := func(data []byte) (mec.Params, error) {
		cfg, _, err := Request{Params: data}.Resolve(base)
		return cfg.Params, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decode(data)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted params fail validation: %v\ninput: %q", verr, data)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted params do not re-encode: %v", err)
		}
		p2, err := decode(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v\n%s", err, enc)
		}
		if p2 != p {
			t.Fatalf("decode not idempotent:\n got %+v\nwant %+v", p2, p)
		}
	})
}

// FuzzDecodeConfig is the same contract for a request's Solver section,
// whose merge semantics carry nested Params and slice-valued fields: accepted
// configurations validate and are stable under re-encode/re-decode.
func FuzzDecodeConfig(f *testing.F) {
	seedCorpus(f, "fuzz_config_seed.json")
	base := DefaultConfig(mec.Default())
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := resolveSolver(string(data), base)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("accepted config fails validation: %v\ninput: %q", verr, data)
		}
		enc1, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not re-encode: %v", err)
		}
		cfg2, err := resolveSolver(string(enc1), base)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("decode not idempotent:\n got %s\nwant %s", enc2, enc1)
		}
	})
}

// FuzzUnmarshalEquilibrium pins the archive decoder's contract on the bytes
// of checkpoints and `solve -save` files (the serving daemon's store records
// are answers and never reach it): whatever arrives, it errors or returns an
// equilibrium — never a panic — and every equilibrium accepted re-marshals to
// an archive that decodes to the same values.
func FuzzUnmarshalEquilibrium(f *testing.F) {
	cfg := DefaultConfig(mec.Default())
	cfg.NH, cfg.NQ, cfg.Steps = 3, 5, 4
	eq, err := Solve(cfg, Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
	if eq == nil {
		f.Fatalf("Solve: %v", err)
	}
	for _, blob := range [][]byte{v1Archive(f, 1, eq), mustMarshal(f, eq)} {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eq, err := UnmarshalEquilibrium(data)
		if err != nil {
			return
		}
		blob, err := MarshalEquilibrium(eq)
		if err != nil {
			t.Fatalf("accepted archive does not re-marshal: %v", err)
		}
		back, err := UnmarshalEquilibrium(blob)
		if err != nil {
			t.Fatalf("re-marshalled archive rejected: %v", err)
		}
		eq.Config.WarmStart = nil // MarshalEquilibrium prunes the chain
		if !sameBits(reflect.ValueOf(back), reflect.ValueOf(eq)) {
			t.Fatal("re-marshalled archive decodes to different values")
		}
	})
}
