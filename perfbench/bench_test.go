package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mec"
	"repro/internal/serve"
	"repro/internal/surrogate"
)

func body(t *testing.T, src serve.Source, bound float64, price ...float64) []byte {
	t.Helper()
	n := len(price)
	resp := serve.SolveResponse{
		Converged: true, Iterations: 12, Residual: 4e-4,
		Time: make([]float64, n), Price: price,
		MeanControl: make([]float64, n), MeanRemaining: make([]float64, n), SharerFrac: make([]float64, n),
		Source: src, ErrorBound: bound,
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerAcceptsIdenticalExactAnswers(t *testing.T) {
	c := newChecker(mec.Default())
	for _, src := range []serve.Source{serve.SourceSolve, serve.SourceCache, serve.SourceStore, serve.SourcePeer, serve.SourceCoalesced} {
		if _, err := c.answer("k", body(t, src, 0, 1.25, 1.5)); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
}

func TestCheckerRejectsFlippedByte(t *testing.T) {
	c := newChecker(mec.Default())
	first := body(t, serve.SourceSolve, 0, 1.25, 1.5)
	if _, err := c.answer("k", first); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(body(t, serve.SourceCache, 0, 1.25, 1.5), []byte("1.25"), []byte("1.35"), 1)
	if _, err := c.answer("k", flipped); err == nil {
		t.Fatal("a cache answer with one changed byte was accepted")
	}
	broken := body(t, serve.SourceCache, 0, 1.25, 1.5)
	broken[len(broken)/2] ^= 0x20
	if _, err := c.answer("k", broken); err == nil {
		t.Fatal("a cache answer with a corrupted byte was accepted")
	}
}

func TestCheckerRejectsUnknownSource(t *testing.T) {
	c := newChecker(mec.Default())
	if _, err := c.answer("k", body(t, "memo", 0, 1.25)); err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Fatalf("unknown source: got %v", err)
	}
}

func TestCheckerSurrogateBound(t *testing.T) {
	p := mec.Default()
	c := newChecker(p)
	c.refs["k"] = &surrogate.Node{Price: []float64{1, 1}, MeanControl: []float64{0, 0}, MeanRemaining: []float64{0, 0}}
	// A price off by 0.01·p̂ deviates 0.01 in the verify metric.
	off := 1 + 0.01*p.PHat
	if _, err := c.answer("k", body(t, serve.SourceSurrogate, 0.02, 1, off)); err != nil {
		t.Fatalf("answer within its bound rejected: %v", err)
	}
	if _, err := c.answer("k", body(t, serve.SourceSurrogate, 0.005, 1, off)); err == nil {
		t.Fatal("surrogate answer outside its declared bound was accepted")
	}
	if _, err := c.answer("other", body(t, serve.SourceSurrogate, 0.02, 1, 1)); err == nil {
		t.Fatal("surrogate answer without an exact reference was accepted")
	}
}

func TestCheckRepliesCountsMissingRequest(t *testing.T) {
	c := newChecker(mec.Default())
	now := time.Now()
	replies := []reply{
		{ID: "timed-0", Status: 200, Body: body(t, serve.SourceSolve, 0, 1), Sent: now, Done: now},
		{ID: "timed-1"}, // never sent
	}
	tl := checkReplies(c, replies, []string{"k"})
	if tl.Succeeded != 1 || tl.Failed != 1 || tl.Missing != 1 {
		t.Fatalf("got succeeded %d failed %d missing %d, want 1 1 1", tl.Succeeded, tl.Failed, tl.Missing)
	}
	o := newOutcome()
	o.addPhase("timed", tl, 2)
	if o.failed != 1 || o.attempted != 2 {
		t.Fatalf("outcome attempted %d failed %d, want 2 and 1", o.attempted, o.failed)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w := []float64{5, 0, 1, 3}
	a := openSchedule(7, 500, 50, w, 3)
	b := openSchedule(7, 500, 50, w, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, 500, 50, w, 3)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, c := range a {
		if c.Key == 1 {
			t.Fatalf("call %d drew a zero-weight key", i)
		}
		if want := time.Duration(float64(i) / 50 * float64(time.Second)); c.Due != want || c.Target != i%3 {
			t.Fatalf("call %d: due %v target %d, want %v and %d", i, c.Due, c.Target, want, i%3)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) was not refused")
	}
	if v, err := percentile(xs, 99); err != nil || v != 989 {
		t.Fatalf("p99 of 1000 samples: got %v, %v; want 989", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) was not refused")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 9 {
		t.Fatalf("p50 of 20 samples: got %v, %v; want 9", v, err)
	}
}
