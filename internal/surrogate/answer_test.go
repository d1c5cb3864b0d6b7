package surrogate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
	a, err := EncodeAnswer(s)
	if err != nil {
		tb.Fatal(err)
	}
	return a.Record()
}

func sameSeries(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// oracleDecode is the reflection decoder DecodeAnswer replaced, kept as the
// reference for the set of records DecodeAnswer accepts: json.Unmarshal, the
// version and shape checks, then a canonical re-encode that must give back
// the input.
func oracleDecode(data []byte) (*Summary, error) {
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
	if again, err := json.Marshal(answerRecord{Version: answerVersion, Summary: *s}); err != nil || !bytes.Equal(again, data) {
		return nil, errors.New("surrogate: answer record is not in canonical form")
	}
	return s, nil
}

// checkAnswer fails unless a is the oracle's decoding want of data: the same
// diagnostics and last price, data itself as the record, and a split whose
// halves make the summary's own JSON object.
func checkAnswer(t *testing.T, data []byte, a *Answer, want *Summary) {
	t.Helper()
	var last float64
	if n := len(want.Price); n > 0 {
		last = want.Price[n-1]
	}
	if a.Converged() != want.Converged || a.Iterations() != want.Iterations ||
		math.Float64bits(a.FinalPrice()) != math.Float64bits(last) {
		t.Fatalf("answer (%v, %d, %v), oracle (%v, %d, %v)", a.Converged(), a.Iterations(), a.FinalPrice(),
			want.Converged, want.Iterations, last)
	}
	if rec := a.Record(); len(rec) != len(data) || &rec[0] != &data[0] {
		t.Fatalf("the answer does not keep the input bytes")
	}
	summary, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	members, tail := a.Members()
	if got := "{" + string(members) + string(tail); got != string(summary) {
		t.Fatalf("members and tail make\n%s\nwant\n%s", got, summary)
	}
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
	enc, err := EncodeAnswer(ans)
	if err != nil {
		t.Fatal(err)
	}
	data := enc.Record()
	checkAnswer(t, data, enc, ans)
	got, err := DecodeAnswer(data)
	if err != nil {
		t.Fatalf("DecodeAnswer: %v", err)
	}
	checkAnswer(t, data, got, ans)
	back, err := oracleDecode(data)
	if err != nil {
		t.Fatalf("the oracle refuses an encoded answer: %v", err)
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
// The oracle refuses each of them too.
func TestDecodeAnswerRefuses(t *testing.T) {
	two := []float64{1, 2}
	valid := mustEncode(t, &Summary{Converged: true, Iterations: 2, Residual: 0.5,
		Time: two, Price: two, MeanControl: two, MeanRemaining: two, SharerFrac: two})
	if _, err := DecodeAnswer(valid); err != nil {
		t.Fatalf("valid record refused: %v", err)
	}
	bounded := mustEncode(t, &Summary{Time: two, Price: two, MeanControl: two, MeanRemaining: two, SharerFrac: two, ErrorBound: 0.25})
	long := make([]float64, maxPathSamples+2)
	cases := map[string][]byte{
		"empty":               nil,
		"truncated":           valid[:len(valid)-1],
		"newer version":       bytes.Replace(valid, []byte(`"answer":1`), []byte(`"answer":2`), 1),
		"version spelling":    bytes.Replace(valid, []byte(`"answer":1`), []byte(`"answer":1.0`), 1),
		"no version":          bytes.Replace(valid, []byte(`"answer":1,`), nil, 1),
		"short series":        bytes.Replace(valid, []byte(`"price":[1,2]`), []byte(`"price":[1]`), 1),
		"too many samples":    mustEncode(t, &Summary{Time: long, Price: long, MeanControl: long, MeanRemaining: long, SharerFrac: long}),
		"whitespace":          append(append([]byte{}, valid...), '\n'),
		"number spelling":     bytes.Replace(valid, []byte(`"residual":0.5`), []byte(`"residual":5e-1`), 1),
		"padded exponent":     bytes.Replace(valid, []byte(`"residual":0.5`), []byte(`"residual":1e-07`), 1),
		"integer spelling":    bytes.Replace(valid, []byte(`"iterations":2`), []byte(`"iterations":2.0`), 1),
		"negative zero int":   bytes.Replace(valid, []byte(`"iterations":2`), []byte(`"iterations":-0`), 1),
		"int overflow":        bytes.Replace(valid, []byte(`"iterations":2`), []byte(`"iterations":9223372036854775808`), 1),
		"null flag":           bytes.Replace(valid, []byte(`"converged":true`), []byte(`"converged":null`), 1),
		"null number":         bytes.Replace(valid, []byte(`"residual":0.5`), []byte(`"residual":null`), 1),
		"zero error bound":    bytes.Replace(valid, []byte(`]}`), []byte(`],"error_bound":0}`), 1),
		"negative zero bound": bytes.Replace(bounded, []byte(`"error_bound":0.25`), []byte(`"error_bound":-0`), 1),
		"key case":            bytes.Replace(valid, []byte(`"converged"`), []byte(`"Converged"`), 1),
		"unknown key":         bytes.Replace(valid, []byte(`"answer":1,`), []byte(`"answer":1,"extra":0,`), 1),
		"repeated key":        bytes.Replace(valid, []byte(`"answer":1,`), []byte(`"answer":1,"iterations":2,`), 1),
		"key order":           bytes.Replace(valid, []byte(`"converged":true,"iterations":2`), []byte(`"iterations":2,"converged":true`), 1),
		"archive":             []byte("\x4d\x46\x47\x45 not json"),
	}
	for name, data := range cases {
		if _, err := DecodeAnswer(data); err == nil {
			t.Errorf("%s: %q accepted", name, data)
		}
		if _, err := oracleDecode(data); err == nil {
			t.Errorf("%s: the oracle accepts %q", name, data)
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

// FuzzDecodeAnswer holds DecodeAnswer to the oracle over arbitrary bytes: it
// never panics, accepts exactly the records the oracle accepts, returns the
// oracle's answer and keeps the input bytes as the record.
func FuzzDecodeAnswer(f *testing.F) {
	valid := mustEncode(f, smallAnswer(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(mustEncode(f, &Summary{Converged: true, Residual: -0.0}))
	f.Add([]byte(`{"answer":1,"converged":false,"iterations":0,"residual":0,"time":[],"price":[],"mean_control":[],"mean_remaining":[],"sharer_frac":[]}`))
	// null series, alone and beside empty ones.
	f.Add(mustEncode(f, &Summary{Iterations: 1}))
	f.Add([]byte(`{"answer":1,"converged":true,"iterations":1,"residual":0,"time":null,"price":[],"mean_control":null,"mean_remaining":[],"sharer_frac":null}`))
	// Numbers at encoding/json's format boundaries: 'f' form on [1e-6, 1e21),
	// exponent form outside it, unpadded negative exponents, and -0.
	edges := []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7, 1.5e-7, 2e-10,
		math.Copysign(0, -1), 5e-324, math.MaxFloat64, -1e21, -1e-7, 0.1, 123456789.123}
	f.Add(mustEncode(f, &Summary{Converged: true, Residual: 1e-7, Time: edges, Price: edges,
		MeanControl: edges, MeanRemaining: edges, SharerFrac: edges}))
	f.Add([]byte(`{"answer":1,"converged":true,"iterations":1,"residual":1e-07,"time":null,"price":null,"mean_control":null,"mean_remaining":null,"sharer_frac":null}`))
	f.Add([]byte(`{"answer":1,"converged":true,"iterations":1,"residual":0.0000001,"time":null,"price":null,"mean_control":null,"mean_remaining":null,"sharer_frac":null}`))
	f.Add([]byte(`{"answer":1,"converged":true,"iterations":1,"residual":1e+21,"time":[1E+21],"price":[-0],"mean_control":[0],"mean_remaining":[1e21],"sharer_frac":[1e-6]}`))
	// An error bound, and the zero one that is never written.
	f.Add(mustEncode(f, &Summary{Time: []float64{0, 1}, Price: []float64{1, 2}, MeanControl: []float64{0, 0},
		MeanRemaining: []float64{3, 2}, SharerFrac: []float64{0, 0}, ErrorBound: 0.0625}))
	f.Add([]byte(`{"answer":1,"converged":false,"iterations":0,"residual":0,"time":null,"price":null,"mean_control":null,"mean_remaining":null,"sharer_frac":null,"error_bound":0}`))
	// Large and negative iteration counts, in and out of range.
	f.Add(mustEncode(f, &Summary{Iterations: math.MaxInt64}))
	f.Add(mustEncode(f, &Summary{Iterations: math.MinInt64}))
	f.Add(mustEncode(f, &Summary{Iterations: -3}))
	f.Add([]byte(`{"answer":1,"converged":false,"iterations":9223372036854775808,"residual":0,"time":null,"price":null,"mean_control":null,"mean_remaining":null,"sharer_frac":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := oracleDecode(data)
		got, err := DecodeAnswer(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeAnswer error %v, oracle error %v, for\n%s", err, wantErr, data)
		}
		if err == nil {
			checkAnswer(t, data, got, want)
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
