package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// JSON codec of the market configuration — the wire form behind the CLI's
// `market -config file.json` flag and any service endpoint that launches
// market runs. The policy is carried by its canonical name ("mfg-cp", "mfg",
// "rr", "mpc", "udcs"); policy tuning beyond the name, and the runtime-only
// fields (Obs, Context, Trace), are process-local and excluded from the wire
// form. Unmarshalling merges onto the receiver, so sparse documents decode
// onto DefaultConfig; unknown keys are rejected.

// configJSON mirrors Config's serialisable surface.
type configJSON struct {
	Params              mec.Params
	Policy              string `json:",omitempty"`
	Solver              engine.Config
	Epochs              int
	StepsPerEpoch       int
	RequestsPerEDP      float64
	Seed                int64
	HeterogeneousDemand bool
	Requesters          RequesterConfig
	ExactInterference   bool
	EqCacheSize         int
	Area                float64
	Faults              *FaultPlan             `json:",omitempty"`
	Recovery            *resilience.Escalation `json:",omitempty"`
	Checkpoint          CheckpointConfig
}

func (c Config) toJSON() configJSON {
	j := configJSON{
		Params:              c.Params,
		Solver:              c.Solver,
		Epochs:              c.Epochs,
		StepsPerEpoch:       c.StepsPerEpoch,
		RequestsPerEDP:      c.RequestsPerEDP,
		Seed:                c.Seed,
		HeterogeneousDemand: c.HeterogeneousDemand,
		Requesters:          c.Requesters,
		ExactInterference:   c.ExactInterference,
		EqCacheSize:         c.EqCacheSize,
		Area:                c.Area,
		Faults:              c.Faults,
		Recovery:            c.Recovery,
		Checkpoint:          c.Checkpoint,
	}
	if c.Policy != nil {
		j.Policy = strings.ToLower(c.Policy.Name())
	}
	return j
}

// MarshalJSON implements json.Marshaler, carrying the policy by name and
// dropping the runtime-only fields (Obs, Context, Trace).
func (c Config) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.toJSON())
}

// UnmarshalJSON implements json.Unmarshaler with merge semantics: fields
// absent from data keep the receiver's current values, unknown fields are an
// error. A "Policy" name instantiates a fresh policy via policy.ByName; when
// absent the receiver's policy instance is kept. Callers validate the merged
// result with Validate.
func (c *Config) UnmarshalJSON(data []byte) error {
	shadow := c.toJSON()
	shadow.Policy = "" // only an explicit name replaces the policy instance
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
		c.Policy = pol
	}
	c.Params = shadow.Params
	c.Solver = shadow.Solver
	c.Epochs = shadow.Epochs
	c.StepsPerEpoch = shadow.StepsPerEpoch
	c.RequestsPerEDP = shadow.RequestsPerEDP
	c.Seed = shadow.Seed
	c.HeterogeneousDemand = shadow.HeterogeneousDemand
	c.Requesters = shadow.Requesters
	c.ExactInterference = shadow.ExactInterference
	c.EqCacheSize = shadow.EqCacheSize
	c.Area = shadow.Area
	c.Faults = shadow.Faults
	c.Recovery = shadow.Recovery
	c.Checkpoint = shadow.Checkpoint
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
