package surrogate

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/engine"
)

// answerVersion is the format version an encoded answer leads with.
const answerVersion = 1

// answerRecord is the JSON shape of an encoded answer: the version first,
// then the summary's fields in declaration order.
type answerRecord struct {
	Version int `json:"answer"`
	Summary
}

// Summarize builds the exact answer of a solved equilibrium: its convergence
// diagnostics and the five series SampleEquilibrium samples, with no error
// bound. Every rung of the serving ladder below the surrogate table holds and
// serves this value instead of the equilibrium.
func Summarize(eq *engine.Equilibrium) *Summary {
	node, times := SampleEquilibrium(eq)
	return &Summary{
		Converged:     node.Converged,
		Iterations:    node.Iterations,
		Residual:      node.Residual,
		Time:          times,
		Price:         node.Price,
		MeanControl:   node.MeanControl,
		MeanRemaining: node.MeanRemaining,
		SharerFrac:    node.SharerFrac,
	}
}

// EncodeAnswer renders an answer as the versioned JSON record that store
// records and peer-fill bodies carry. JSON writes each float64 in its
// shortest round-tripping form, so a decoded answer serves the same bytes as
// the one encoded. A non-finite value does not encode.
func EncodeAnswer(s *Summary) ([]byte, error) {
	data, err := json.Marshal(answerRecord{Version: answerVersion, Summary: *s})
	if err != nil {
		return nil, fmt.Errorf("surrogate: encode answer: %w", err)
	}
	return data, nil
}

// DecodeAnswer parses one encoded answer. It accepts exactly the bytes
// EncodeAnswer writes: a record of another version, with series of unequal
// length or more samples than SampleEquilibrium takes, or in any other
// spelling of the same JSON (whitespace, key order or case, number form,
// unknown or repeated keys) is refused, so every accepted record re-encodes
// to itself (FuzzDecodeAnswer pins this).
func DecodeAnswer(data []byte) (*Summary, error) {
	var rec answerRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("surrogate: decode answer: %w", err)
	}
	if rec.Version != answerVersion {
		return nil, fmt.Errorf("surrogate: answer version %d, want %d", rec.Version, answerVersion)
	}
	s := &rec.Summary
	if n := len(s.Time); n > maxPathSamples+1 {
		return nil, fmt.Errorf("surrogate: answer has %d samples, at most %d", n, maxPathSamples+1)
	}
	for _, series := range [][]float64{s.Price, s.MeanControl, s.MeanRemaining, s.SharerFrac} {
		if len(series) != len(s.Time) {
			return nil, fmt.Errorf("surrogate: answer series of %d samples on a %d-sample time grid", len(series), len(s.Time))
		}
	}
	if again, err := EncodeAnswer(s); err != nil || !bytes.Equal(again, data) {
		return nil, fmt.Errorf("surrogate: answer record is not in canonical form")
	}
	return s, nil
}
