package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mec"
	"repro/internal/pde"
)

// TestConfigJSONRoundTrip checks Marshal → Unmarshal reproduces every
// serialisable field, for the default configuration and for one with every
// knob moved off its default.
func TestConfigJSONRoundTrip(t *testing.T) {
	p := mec.Default()
	custom := DefaultConfig(p)
	custom.NH, custom.NQ, custom.Steps = 7, 21, 48
	custom.MaxIters = 17
	custom.Tol = 5e-4
	custom.Damping = 0.35
	custom.BlowupResidual = 1e6
	custom.FPKForm = pde.Advective
	custom.Scheme = "explicit"
	custom.Surrogate = SurrogateConfig{Path: "table.mfgt", MaxErrorBound: 0.01}
	custom.ShareEnabled = false
	custom.InitLambda = []float64{1, 2, 3}

	for name, cfg := range map[string]Config{
		"default": DefaultConfig(p),
		"custom":  custom,
	} {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var got Config
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(got, cfg) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, cfg)
		}
	}
}

// resolveSolver resolves a request carrying only a Solver section.
func resolveSolver(doc string, base Config) (Config, error) {
	cfg, _, err := Request{Solver: json.RawMessage(doc)}.Resolve(base)
	return cfg, err
}

// TestConfigJSONMerge checks that a sparse document decoded onto a populated
// base keeps every absent field.
func TestConfigJSONMerge(t *testing.T) {
	base := DefaultConfig(mec.Default())
	cfg, err := resolveSolver(`{"NQ": 31, "Scheme": "explicit"}`, base)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if cfg.NQ != 31 || cfg.Scheme != "explicit" {
		t.Errorf("overrides not applied: NQ=%d Scheme=%q", cfg.NQ, cfg.Scheme)
	}
	if cfg.NH != base.NH || cfg.Tol != base.Tol || cfg.Params != base.Params {
		t.Errorf("absent fields did not keep base values: %+v", cfg)
	}
	// Nested params merge too.
	cfg, err = resolveSolver(`{"Params": {"Qk": 80}}`, base)
	if err != nil {
		t.Fatalf("resolve nested: %v", err)
	}
	if cfg.Params.Qk != 80 || cfg.Params.M != base.Params.M {
		t.Errorf("nested merge wrong: Qk=%g M=%d", cfg.Params.Qk, cfg.Params.M)
	}
}

// TestConfigJSONRejection table-drives the decoder's error paths: unknown
// keys, malformed JSON and values the PR-3 validation rejects.
func TestConfigJSONRejection(t *testing.T) {
	base := DefaultConfig(mec.Default())
	cases := []struct {
		name, doc, want string
	}{
		{"unknown key", `{"Damp": 0.5}`, "unknown field"},
		{"retired kernel block", `{"Kernel": {"Workers": 2}}`, "unknown field"},
		{"malformed", `{"NH": }`, "invalid character"},
		{"type error", `{"NH": "7"}`, "Go struct field configJSON.NH of type int"},
		{"zero tol", `{"Tol": 0}`, "Tol"},
		{"bad damping", `{"Damping": 1.5}`, "Damping"},
		{"tiny grid", `{"NH": 1}`, "grid"},
		{"negative blowup", `{"BlowupResidual": -1}`, "BlowupResidual"},
		{"bad scheme", `{"Scheme": "upwind"}`, "scheme"},
		{"retired stepping", `{"Stepping": 1}`, "unknown field \"Stepping\""},
		{"bad params", `{"Params": {"Qk": -1}}`, "Qk"},
	}
	for _, tc := range cases {
		if _, err := resolveSolver(tc.doc, base); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.doc)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A failed decode leaves the receiver as it was, the elements of its
	// InitLambda included.
	for _, doc := range []string{`{"InitLambda": [9, 9], "NQ": 5, "Damp": 0.5}`, `{"InitLambda": [9], "NH": "7"}`} {
		got, want := base, base
		got.InitLambda, want.InitLambda = []float64{1, 2, 3}, []float64{1, 2, 3}
		if err := json.Unmarshal([]byte(doc), &got); err == nil {
			t.Errorf("decoded %s", doc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("failed decode of %s changed the receiver:\n got %+v\nwant %+v", doc, got, want)
		}
	}
}

// TestConfigJSONDropsRuntimeFields checks Obs/WarmStart never reach the wire
// and survive an in-place merge untouched.
func TestConfigJSONDropsRuntimeFields(t *testing.T) {
	cfg := DefaultConfig(mec.Default())
	eq := &Equilibrium{}
	cfg.WarmStart = eq
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(data), "WarmStart") || strings.Contains(string(data), "Obs") {
		t.Fatalf("runtime fields leaked to the wire: %s", data)
	}
	if err := json.Unmarshal([]byte(`{"NH": 9}`), &cfg); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if cfg.WarmStart != eq {
		t.Errorf("merge clobbered WarmStart")
	}
	if cfg.NH != 9 {
		t.Errorf("merge missed NH: %d", cfg.NH)
	}
}

// TestWorkloadValidationRejectsNonFinite locks the NaN/Inf hardening of the
// workload validation (the serve layer depends on it for request rejection).
func TestWorkloadValidationRejectsNonFinite(t *testing.T) {
	good := Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	bads := []Workload{
		{Requests: math.NaN(), Pop: 0.3, Timeliness: 2},
		{Requests: math.Inf(1), Pop: 0.3, Timeliness: 2},
		{Requests: 10, Pop: math.NaN(), Timeliness: 2},
		{Requests: 10, Pop: 0.3, Timeliness: math.NaN()},
		{Requests: 10, Pop: 0.3, Timeliness: math.Inf(1)},
		{Requests: -1, Pop: 0.3, Timeliness: 2},
		{Requests: 10, Pop: 1.5, Timeliness: 2},
	}
	for _, w := range bads {
		if err := w.Validate(); err == nil {
			t.Errorf("invalid workload accepted: %+v", w)
		}
	}
	if _, err := DecodeWorkload([]byte(`{"Requests": 10, "Pop": 0.3, "Timeless": 1}`)); err == nil {
		t.Errorf("unknown workload field accepted")
	}
	w, err := DecodeWorkload([]byte(`{"Requests": 10, "Pop": 0.3, "Timeliness": 2}`))
	if err != nil || w != good {
		t.Errorf("DecodeWorkload = %+v, %v", w, err)
	}
}

// TestRequestResolvePrecedence pins the one merge rule of a request: base,
// then Params, then Solver (its own Params member over field by field), then
// one Validate of the result; the Workload section lands on the zero
// workload; a bad section of any kind fails with an error naming it.
func TestRequestResolvePrecedence(t *testing.T) {
	base := DefaultConfig(mec.Default())
	base.NQ = 15
	base.WarmStart = &Equilibrium{}
	def := base.Params
	cases := []struct {
		name       string
		req        Request
		eta1, eta2 float64
		nq         int
		w          Workload
	}{
		{"empty", Request{}, def.Eta1, def.Eta2, 15, Workload{}},
		{"Params only", Request{Params: json.RawMessage(`{"Eta1": 7}`)}, 7, def.Eta2, 15, Workload{}},
		{"Solver.Params only", Request{Solver: json.RawMessage(`{"Params": {"Eta1": 7}}`)}, 7, def.Eta2, 15, Workload{}},
		{"both overlap field by field", Request{
			Params: json.RawMessage(`{"Eta1": 7, "Eta2": 3}`),
			Solver: json.RawMessage(`{"Params": {"Eta1": 5}, "NQ": 21}`),
		}, 5, 3, 21, Workload{}},
		{"Solver.Params mends an invalid Params value", Request{
			Params: json.RawMessage(`{"Qk": -1, "Eta1": 7}`),
			Solver: json.RawMessage(`{"Params": {"Qk": 80}}`),
		}, 7, def.Eta2, 15, Workload{}},
		{"workload onto zero", Request{Workload: json.RawMessage(`{"Requests": 4}`)}, def.Eta1, def.Eta2, 15, Workload{Requests: 4}},
	}
	for _, tc := range cases {
		cfg, w, err := tc.req.Resolve(base)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if cfg.Params.Eta1 != tc.eta1 || cfg.Params.Eta2 != tc.eta2 || cfg.NQ != tc.nq || w != tc.w {
			t.Errorf("%s: Eta1=%g Eta2=%g NQ=%d w=%+v, want %g %g %d %+v",
				tc.name, cfg.Params.Eta1, cfg.Params.Eta2, cfg.NQ, w, tc.eta1, tc.eta2, tc.nq, tc.w)
		}
		if cfg.NH != base.NH || cfg.Params.M != def.M || cfg.WarmStart != base.WarmStart {
			t.Errorf("%s: fields absent from the request left their base values", tc.name)
		}
	}

	bad := []struct {
		name, want string
		req        Request
	}{
		{"unknown params field", "decode params", Request{Params: json.RawMessage(`{"Eta": 1}`)}},
		{"invalid params value", "Qk", Request{Params: json.RawMessage(`{"Qk": -1}`)}},
		{"unknown solver field", "decode solver config", Request{Solver: json.RawMessage(`{"Damp": 1}`)}},
		{"invalid solver value", "Damping", Request{Solver: json.RawMessage(`{"Damping": 2}`)}},
		{"unknown workload field", "decode workload", Request{Workload: json.RawMessage(`{"Timeless": 1}`)}},
		{"invalid workload value", "popularity", Request{Workload: json.RawMessage(`{"Pop": 2}`)}},
	}
	for _, tc := range bad {
		if _, _, err := tc.req.Resolve(base); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}

	// The sections travel in declaration order and absent ones are omitted,
	// so the bodies that embed a Request keep their wire bytes.
	data, err := json.Marshal(Request{Workload: json.RawMessage(`{}`), Params: json.RawMessage(`{}`)})
	if err != nil || string(data) != `{"Params":{},"Workload":{}}` {
		t.Errorf("Request encodes as %s, %v", data, err)
	}
}
