package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
)

// This file is the JSON codec of an equilibrium query: Request, the one wire
// shape shared by the serving daemon's request bodies, the CLI's `-config
// file.json` flag and library callers, and under it the codec of the solver
// configuration. Config is its own wire shape: every exported field travels
// under its own name, except the runtime-only Obs and WarmStart, which are
// tagged `json:"-"` — a recorder and a warm-start equilibrium are
// process-local handles, not configuration.
//
// Unmarshalling MERGES onto the receiver: fields absent from the JSON keep
// the receiver's current value, so decoding a sparse document onto
// DefaultConfig(params) yields a fully populated configuration. Unknown keys
// are rejected (a typo in a config file or HTTP request must not silently
// fall back to a default), and NaN/Inf can never arrive through JSON — the
// grammar has no literal for them, and Validate rejects any that a library
// caller constructs directly.

// UnmarshalJSON implements json.Unmarshaler with merge semantics: fields
// absent from data keep the receiver's current values, unknown fields are an
// error, and on error the receiver is unchanged. Obs and WarmStart are never
// decoded. Callers validate the merged result with Validate.
func (c *Config) UnmarshalJSON(data []byte) error {
	// configJSON is Config without its methods, so decoding does not recurse.
	type configJSON Config
	shadow := configJSON(*c)
	// The decoder writes a JSON array into the slice's existing elements;
	// give it a copy so the receiver never shares the write.
	shadow.InitLambda = slices.Clone(c.InitLambda)
	if err := decodeStrict(data, &shadow); err != nil {
		return fmt.Errorf("core: decode solver config: %w", err)
	}
	*c = Config(shadow)
	return nil
}

// Request is the one wire shape of an equilibrium query: the `/v1/solve` and
// `/v1/peer/get` bodies embed it, and the CLI's `-config` files decode into
// it. Each section is an optional sparse JSON document.
type Request struct {
	Params   json.RawMessage `json:",omitempty"`
	Solver   json.RawMessage `json:",omitempty"`
	Workload json.RawMessage `json:",omitempty"`
}

// Resolve merges the request onto base and returns the validated
// configuration and workload. Precedence, lowest first: base, then Params,
// then Solver (whose own Params member merges over field by field), then one
// Validate of the result. The Workload section decodes onto the zero
// workload. Every caller that turns request documents into a cache key
// resolves through here, so one document always names one key.
func (r Request) Resolve(base Config) (Config, Workload, error) {
	cfg := base
	if len(r.Params) > 0 {
		if err := decodeStrict(r.Params, &cfg.Params); err != nil {
			return Config{}, Workload{}, fmt.Errorf("core: decode params: %w", err)
		}
	}
	if len(r.Solver) > 0 {
		if err := json.Unmarshal(r.Solver, &cfg); err != nil {
			return Config{}, Workload{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, Workload{}, err
	}
	var w Workload
	if len(r.Workload) > 0 {
		var err error
		if w, err = DecodeWorkload(r.Workload); err != nil {
			return Config{}, Workload{}, err
		}
	}
	return cfg, w, nil
}

// DecodeWorkload decodes a JSON workload document (unknown fields rejected)
// and validates it.
func DecodeWorkload(data []byte) (Workload, error) {
	var w Workload
	if err := decodeStrict(data, &w); err != nil {
		return Workload{}, fmt.Errorf("core: decode workload: %w", err)
	}
	if err := w.Validate(); err != nil {
		return Workload{}, err
	}
	return w, nil
}

// decodeStrict decodes data onto dst, rejecting unknown fields.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}
