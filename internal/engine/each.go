package engine

import "sync"

// Each calls fn(worker, i) for every i in [0, n) on at most workers
// goroutines (at least one), handing the indices out in increasing order. It
// is the module's one way to run independent indexed work, such as one solve
// per content or per lattice node.
//
// Once a call has failed, Each hands out no further index, waits for the
// calls already running and returns the error of the lowest failed index:
// every lower index was handed out before it and ran to the end, so that is
// the error a sequential loop would meet first, whatever the scheduling.
//
// worker names the goroutine making the call and lies in [0, min(workers, n))
// (0 when workers < 1), so a caller can keep per-worker state, such as a
// Session built on the worker's first call, in a slice indexed by it.
func Each(n, workers int, fn func(worker, i int) error) error {
	var (
		mu      sync.Mutex
		next    int
		lowest  = n // lowest failed index so far
		lowErr  error
		running sync.WaitGroup
	)
	work := func(w int) {
		defer running.Done()
		for {
			mu.Lock()
			i := next
			if i >= n || lowErr != nil {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			if err := fn(w, i); err != nil {
				mu.Lock()
				if i < lowest {
					lowest, lowErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	workers = max(1, min(workers, n))
	running.Add(workers)
	for w := 0; w < workers; w++ {
		go work(w)
	}
	running.Wait()
	return lowErr
}
