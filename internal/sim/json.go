package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/policy"
)

// JSON codec of the market configuration — the wire form behind the CLI's
// `market -config file.json` flag and any service endpoint that launches
// market runs. Config is its own wire shape but for the policy: every
// exported field travels under its own name, the runtime-only fields (Obs,
// Context, Trace) are tagged `json:"-"`, and the policy follows them as its
// canonical name ("mfg-cp", "mfg", "rr", "mpc", "udcs"); policy tuning beyond
// the name is process-local. Unmarshalling merges onto the receiver, so
// sparse documents decode onto DefaultConfig; unknown keys are rejected.

// configJSON is the wire form: the config's own fields, then the policy by
// name.
type configJSON struct {
	marketConfig
	Policy string `json:",omitempty"`
}

// marketConfig is Config without its methods, so the codec does not recurse.
type marketConfig Config

// MarshalJSON implements json.Marshaler, carrying the policy by name.
func (c Config) MarshalJSON() ([]byte, error) {
	j := configJSON{marketConfig: marketConfig(c)}
	if c.Policy != nil {
		j.Policy = strings.ToLower(c.Policy.Name())
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler with merge semantics: fields
// absent from data keep the receiver's current values, unknown fields are an
// error, and on error the receiver is unchanged. A "Policy" name
// instantiates a fresh policy via policy.ByName; when absent the receiver's
// policy instance is kept. Callers validate the merged result with Validate.
func (c *Config) UnmarshalJSON(data []byte) error {
	shadow := configJSON{marketConfig: marketConfig(*c)}
	// The decoder writes through pointers; give it copies so the receiver's
	// fault plan and ladder never share the write.
	if c.Faults != nil {
		f := *c.Faults
		shadow.Faults = &f
	}
	if c.Recovery != nil {
		r := *c.Recovery
		shadow.Recovery = &r
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&shadow); err != nil {
		return fmt.Errorf("sim: decode market config: %w", err)
	}
	if shadow.Policy != "" {
		pol, err := policy.ByName(shadow.Policy)
		if err != nil {
			return fmt.Errorf("sim: decode market config: %w", err)
		}
		shadow.marketConfig.Policy = pol
	}
	*c = Config(shadow.marketConfig)
	return nil
}

// DecodeConfig decodes a JSON document onto base (merge semantics) and
// validates the result — the entry point behind `market -config file.json`.
func DecodeConfig(data []byte, base Config) (Config, error) {
	cfg := base
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	// The epoch loop hands the solver config to the policy with the market's
	// model constants substituted in (EpochContext.Params wins), so validate
	// it under the same substitution.
	solver := cfg.Solver
	solver.Params = cfg.Params
	if err := solver.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
