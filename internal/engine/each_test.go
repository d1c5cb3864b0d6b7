package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEachLowestFailedIndexWins makes index 5 fail while index 3 is still
// running and fails it only afterwards: Each must return index 3's error,
// the one a sequential loop would meet first.
func TestEachLowestFailedIndexWins(t *testing.T) {
	errs := make([]error, 8)
	for i := range errs {
		errs[i] = fmt.Errorf("index %d", i)
	}
	fiveFailed := make(chan struct{})
	err := Each(len(errs), 2, func(_, i int) error {
		switch i {
		case 3:
			<-fiveFailed
			return errs[3]
		case 5:
			close(fiveFailed)
			return errs[5]
		}
		return nil
	})
	if !errors.Is(err, errs[3]) {
		t.Fatalf("Each returned %v, want %v", err, errs[3])
	}
}

// TestEachStopsAfterFailure pins the stop rule: with one worker and index 0
// failing, almost none of the other indices run.
func TestEachStopsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	err := Each(100, 1, func(_, i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Each returned %v, want %v", err, boom)
	}
	if n := calls.Load(); n > 2 {
		t.Fatalf("%d of 100 indices ran after index 0 failed, want at most 2", n)
	}
}

// TestEachCallsEveryIndexOnce checks that every index runs exactly once and
// that every worker lies in [0, min(workers, n)).
func TestEachCallsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{1, 1}, {7, 3}, {3, 8}, {50, 4}, {16, 16}} {
		var mu sync.Mutex
		seen := make([]int, c.n)
		if err := Each(c.n, c.workers, func(w, i int) error {
			if w < 0 || w >= min(c.workers, c.n) {
				t.Errorf("n=%d workers=%d: worker %d out of range", c.n, c.workers, w)
			}
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		for i, k := range seen {
			if k != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", c.n, c.workers, i, k)
			}
		}
	}
}

// TestEachEdgeCounts covers n = 0, which calls nothing, and workers ≤ 0,
// which runs every index in order on one goroutine.
func TestEachEdgeCounts(t *testing.T) {
	if err := Each(0, 4, func(_, i int) error {
		t.Errorf("n=0 called index %d", i)
		return nil
	}); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	for _, workers := range []int{0, -3} {
		var running atomic.Int32
		next := 0
		if err := Each(5, workers, func(w, i int) error {
			if running.Add(1) != 1 {
				t.Errorf("workers=%d: calls overlap", workers)
			}
			defer running.Add(-1)
			if w != 0 || i != next {
				t.Errorf("workers=%d: call (%d, %d), want (0, %d)", workers, w, i, next)
			}
			next++
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if next != 5 {
			t.Errorf("workers=%d: %d of 5 indices ran", workers, next)
		}
	}
}
