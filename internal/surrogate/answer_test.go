package surrogate

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mec"
)

// solvedAnswer solves w on cfg and summarises the equilibrium.
func solvedAnswer(tb testing.TB, cfg engine.Config, w engine.Workload) (*engine.Equilibrium, *Summary) {
	tb.Helper()
	eq, err := engine.Solve(cfg, w)
	if err != nil {
		tb.Fatalf("Solve: %v", err)
	}
	return eq, Summarize(eq)
}

// smallAnswer is the answer of a coarse-grid solve.
func smallAnswer(tb testing.TB) *Summary {
	tb.Helper()
	cfg := engine.DefaultConfig(mec.Default())
	cfg.NH, cfg.NQ, cfg.Steps = 3, 5, 4
	_, ans := solvedAnswer(tb, cfg, engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
	return ans
}

func mustEncode(tb testing.TB, s *Summary) []byte {
	tb.Helper()
	data, err := EncodeAnswer(s)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func sameSeries(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestAnswerRoundTripBitExact: Summarize keeps SampleEquilibrium's samples,
// and an encoded answer decodes to the same bits, so every rung that stores
// or ships an answer serves the body the solve gave.
func TestAnswerRoundTripBitExact(t *testing.T) {
	cfg := engine.DefaultConfig(mec.Default())
	cfg.NH, cfg.NQ, cfg.Steps = 5, 15, 130 // more time levels than samples
	eq, ans := solvedAnswer(t, cfg, engine.Workload{Requests: 12, Pop: 0.25, Timeliness: 3})
	node, times := SampleEquilibrium(eq)
	if ans.ErrorBound != 0 || ans.Converged != node.Converged || ans.Iterations != node.Iterations ||
		ans.Residual != node.Residual || !sameSeries(ans.Time, times) || !sameSeries(ans.Price, node.Price) ||
		!sameSeries(ans.MeanControl, node.MeanControl) || !sameSeries(ans.MeanRemaining, node.MeanRemaining) ||
		!sameSeries(ans.SharerFrac, node.SharerFrac) {
		t.Fatalf("Summarize differs from SampleEquilibrium: %+v", ans)
	}
	if n := len(ans.Time); n < 2 || n > maxPathSamples+1 || ans.Price[n-1] != eq.Snapshots[len(eq.Snapshots)-1].Price {
		t.Fatalf("%d samples, last price %v", n, ans.Price)
	}
	data := mustEncode(t, ans)
	back, err := DecodeAnswer(data)
	if err != nil {
		t.Fatalf("DecodeAnswer: %v", err)
	}
	if back.Converged != ans.Converged || back.Iterations != ans.Iterations ||
		math.Float64bits(back.Residual) != math.Float64bits(ans.Residual) || back.ErrorBound != 0 {
		t.Errorf("diagnostics %+v, want %+v", back, ans)
	}
	for i, pair := range [][2][]float64{
		{back.Time, ans.Time}, {back.Price, ans.Price}, {back.MeanControl, ans.MeanControl},
		{back.MeanRemaining, ans.MeanRemaining}, {back.SharerFrac, ans.SharerFrac},
	} {
		if !sameSeries(pair[0], pair[1]) {
			t.Errorf("series %d changed across the codec", i)
		}
	}
	if !strings.HasPrefix(string(data), `{"answer":1,"converged":`) {
		t.Errorf("record does not lead with its version: %.40s", data)
	}
}

// TestDecodeAnswerRefuses covers the records DecodeAnswer must refuse: other
// versions, inconsistent shapes, and every other spelling of a valid record.
func TestDecodeAnswerRefuses(t *testing.T) {
	two := []float64{1, 2}
	valid := mustEncode(t, &Summary{Converged: true, Iterations: 2, Residual: 0.5,
		Time: two, Price: two, MeanControl: two, MeanRemaining: two, SharerFrac: two})
	if _, err := DecodeAnswer(valid); err != nil {
		t.Fatalf("valid record refused: %v", err)
	}
	long := make([]float64, maxPathSamples+2)
	cases := map[string][]byte{
		"empty":            nil,
		"truncated":        valid[:len(valid)-1],
		"newer version":    bytes.Replace(valid, []byte(`"answer":1`), []byte(`"answer":2`), 1),
		"no version":       bytes.Replace(valid, []byte(`"answer":1,`), nil, 1),
		"short series":     bytes.Replace(valid, []byte(`"price":[1,2]`), []byte(`"price":[1]`), 1),
		"too many samples": mustEncode(t, &Summary{Time: long, Price: long, MeanControl: long, MeanRemaining: long, SharerFrac: long}),
		"whitespace":       append(append([]byte{}, valid...), '\n'),
		"number spelling":  bytes.Replace(valid, []byte(`"residual":0.5`), []byte(`"residual":5e-1`), 1),
		"key case":         bytes.Replace(valid, []byte(`"converged"`), []byte(`"Converged"`), 1),
		"unknown key":      bytes.Replace(valid, []byte(`"answer":1,`), []byte(`"answer":1,"extra":0,`), 1),
		"repeated key":     bytes.Replace(valid, []byte(`"answer":1,`), []byte(`"answer":1,"iterations":2,`), 1),
		"key order":        bytes.Replace(valid, []byte(`"converged":true,"iterations":2`), []byte(`"iterations":2,"converged":true`), 1),
		"archive":          []byte("\x4d\x46\x47\x45 not json"),
	}
	for name, data := range cases {
		if _, err := DecodeAnswer(data); err == nil {
			t.Errorf("%s: %q accepted", name, data)
		}
	}
}

// TestEncodeAnswerRefusesNonFinite: JSON has no NaN or infinity, so such an
// answer fails to encode instead of writing a record that cannot decode.
func TestEncodeAnswerRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := EncodeAnswer(&Summary{Time: []float64{0}, Price: []float64{v}, MeanControl: []float64{0},
			MeanRemaining: []float64{0}, SharerFrac: []float64{0}}); err == nil {
			t.Errorf("answer with %v encoded", v)
		}
	}
}

// FuzzDecodeAnswer pins the answer codec's contracts over arbitrary bytes:
// DecodeAnswer never panics, and every record it accepts re-encodes to
// exactly its own bytes.
func FuzzDecodeAnswer(f *testing.F) {
	valid := mustEncode(f, smallAnswer(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(mustEncode(f, &Summary{Converged: true, Residual: -0.0}))
	f.Add([]byte(`{"answer":1,"converged":false,"iterations":0,"residual":0,"time":[],"price":[],"mean_control":[],"mean_remaining":[],"sharer_frac":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ans, err := DecodeAnswer(data)
		if err != nil {
			return
		}
		again, err := EncodeAnswer(ans)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently:\n%s\nvs\n%s", data, again)
		}
	})
}

// BenchmarkAnswerCodec times the encoding and decoding of a default-grid
// answer, the record every store hit reads and every peer fill ships.
func BenchmarkAnswerCodec(b *testing.B) {
	_, ans := solvedAnswer(b, engine.DefaultConfig(mec.Default()), engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2})
	data := mustEncode(b, ans)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := EncodeAnswer(ans); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeAnswer(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
