package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/serve"
	"repro/internal/surrogate"
)

// checker validates every answer of a run. Exact answers must be
// byte-identical, apart from their source, to the first answer seen for
// their canonical key; surrogate answers must lie within their declared
// error bound of an exact reference solve.
type checker struct {
	params mec.Params
	first  map[string][]byte          // canonical key → first exact body without "source"
	refs   map[string]*surrogate.Node // canonical key → exact reference (surrogate keys)
	// boundUse is the largest deviation/declared-bound ratio of any
	// surrogate answer checked: how close the tier came to breaking its
	// promise.
	boundUse float64
}

func newChecker(p mec.Params) *checker {
	return &checker{params: p, first: make(map[string][]byte), refs: make(map[string]*surrogate.Node)}
}

var exactSource = map[serve.Source]bool{
	serve.SourceCache: true, serve.SourceStore: true, serve.SourcePeer: true,
	serve.SourceCoalesced: true, serve.SourceSolve: true,
}

// answer checks one 200 body for canonical key key and returns its source.
func (c *checker) answer(key string, body []byte) (serve.Source, error) {
	var resp serve.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("undecodable body: %w", err)
	}
	switch {
	case resp.Source == serve.SourceSurrogate:
		ref := c.refs[key]
		if ref == nil {
			return resp.Source, fmt.Errorf("surrogate answer for a key with no exact reference")
		}
		if !(resp.ErrorBound > 0) || math.IsInf(resp.ErrorBound, 0) {
			return resp.Source, fmt.Errorf("surrogate answer declares error bound %g", resp.ErrorBound)
		}
		dev, err := deviation(&resp, ref, c.params)
		if err != nil {
			return resp.Source, err
		}
		c.boundUse = math.Max(c.boundUse, dev/resp.ErrorBound)
		if dev > resp.ErrorBound {
			return resp.Source, fmt.Errorf("surrogate answer deviates %g from the exact solve, beyond its bound %g", dev, resp.ErrorBound)
		}
	case exactSource[resp.Source]:
		if resp.ErrorBound != 0 {
			return resp.Source, fmt.Errorf("exact %s answer declares error bound %g", resp.Source, resp.ErrorBound)
		}
		stripped, err := withoutSource(body)
		if err != nil {
			return resp.Source, err
		}
		if prev, ok := c.first[key]; !ok {
			c.first[key] = stripped
		} else if !bytes.Equal(prev, stripped) {
			return resp.Source, fmt.Errorf("%s answer differs from the first answer for its key", resp.Source)
		}
	default:
		return resp.Source, fmt.Errorf("unknown source %q", resp.Source)
	}
	return resp.Source, nil
}

// withoutSource re-encodes a body with its "source" member removed; the
// remaining members keep their exact encoded bytes.
func withoutSource(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("undecodable body: %w", err)
	}
	delete(m, "source")
	return json.Marshal(m)
}

// deviation is the verify-differential distance the surrogate's bounds
// promise to dominate: the sup over the sampled times of the price deviation
// relative to p̂, the mean-control deviation and the mean-remaining
// deviation relative to Qk.
func deviation(resp *serve.SolveResponse, ref *surrogate.Node, p mec.Params) (float64, error) {
	n := len(ref.Price)
	if len(resp.Price) != n || len(resp.MeanControl) != n || len(resp.MeanRemaining) != n {
		return 0, fmt.Errorf("surrogate answer has %d samples, the exact solve %d", len(resp.Price), n)
	}
	var worst float64
	for j := 0; j < n; j++ {
		for _, d := range []float64{
			math.Abs(resp.Price[j]-ref.Price[j]) / p.PHat,
			math.Abs(resp.MeanControl[j] - ref.MeanControl[j]),
			math.Abs(resp.MeanRemaining[j]-ref.MeanRemaining[j]) / p.Qk,
		} {
			if math.IsNaN(d) {
				return 0, fmt.Errorf("non-finite surrogate deviation at sample %d", j)
			}
			worst = math.Max(worst, d)
		}
	}
	return worst, nil
}

// matchesSolve checks that a served body carries exactly the summary of a
// direct solve of the same key: every sampled value bit for bit.
func matchesSolve(body []byte, eq *engine.Equilibrium) error {
	var resp serve.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable body: %w", err)
	}
	ref, times := surrogate.SampleEquilibrium(eq)
	if resp.Converged != ref.Converged || resp.Iterations != ref.Iterations || resp.Residual != ref.Residual {
		return fmt.Errorf("served (converged %v, %d iterations, residual %g), direct solve (%v, %d, %g)",
			resp.Converged, resp.Iterations, resp.Residual, ref.Converged, ref.Iterations, ref.Residual)
	}
	for _, s := range []struct {
		name      string
		got, want []float64
	}{
		{"time", resp.Time, times},
		{"price", resp.Price, ref.Price},
		{"mean_control", resp.MeanControl, ref.MeanControl},
		{"mean_remaining", resp.MeanRemaining, ref.MeanRemaining},
		{"sharer_frac", resp.SharerFrac, ref.SharerFrac},
	} {
		if len(s.got) != len(s.want) {
			return fmt.Errorf("%s: %d served samples, %d from the direct solve", s.name, len(s.got), len(s.want))
		}
		for j := range s.got {
			if s.got[j] != s.want[j] {
				return fmt.Errorf("%s[%d]: served %v, direct solve %v", s.name, j, s.got[j], s.want[j])
			}
		}
	}
	return nil
}

// tally is the per-phase outcome of the generator's replies after checking.
type tally struct {
	Sent      int64                  `json:"sent"`
	Succeeded int64                  `json:"succeeded"`
	Failed    int64                  `json:"failed"`
	Missing   int64                  `json:"missing"`
	Shed      int64                  `json:"shed"`
	Sources   map[serve.Source]int64 `json:"sources"` // 200 answers by the rung they name
	Errors    []string               `json:"errors,omitempty"`

	sources []serve.Source // per reply, "" when failed
}

// maxErrors bounds the failure messages kept in a run record.
const maxErrors = 8

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Errors) < maxErrors {
		t.Errors = append(t.Errors, fmt.Sprintf(format, args...))
	}
}

// checkReplies checks every reply of a phase: a call never sent, a transport
// error, a non-2xx status or an answer the checker rejects is a failure.
// keys maps a call's Key to its canonical cache key.
func checkReplies(c *checker, replies []reply, keys []string) *tally {
	t := &tally{Sources: make(map[serve.Source]int64), sources: make([]serve.Source, len(replies))}
	for i := range replies {
		r := &replies[i]
		if r.Sent.IsZero() {
			t.Missing++
			t.fail("%s: never sent", r.ID)
			continue
		}
		t.Sent++
		switch {
		case r.Err != nil:
			t.fail("%s: %v", r.ID, r.Err)
		case r.Status == 429 || r.Status == 503:
			t.Shed++
			t.fail("%s: shed with status %d", r.ID, r.Status)
		case r.Status != 200:
			t.fail("%s: status %d: %.200s", r.ID, r.Status, r.Body)
		default:
			// A 200 counts for the rung it names even when its content fails
			// a check, so the counts still reconcile with the registries.
			src, err := c.answer(keys[r.Call.Key], r.Body)
			if src != "" {
				t.Sources[src]++
			}
			if err != nil {
				t.fail("%s: %v", r.ID, err)
				continue
			}
			t.Succeeded++
			t.sources[i] = src
		}
	}
	return t
}

// merge adds another tally of the same phase (repeated set-ups).
func (t *tally) merge(o *tally) {
	t.Sent += o.Sent
	t.Succeeded += o.Succeeded
	t.Failed += o.Failed
	t.Missing += o.Missing
	t.Shed += o.Shed
	for src, n := range o.Sources {
		t.Sources[src] += n
	}
	for _, e := range o.Errors {
		if len(t.Errors) < maxErrors {
			t.Errors = append(t.Errors, e)
		}
	}
}
