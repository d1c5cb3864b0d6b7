package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// call is one scheduled request of a phase.
type call struct {
	Due    time.Duration // offset from the phase start (open loop only)
	Key    int           // index into the workload's key universe
	Target int           // index into the daemon base URLs
}

// reply is what the generator observed for one call. A reply whose Sent is
// zero was never sent (the phase was cancelled first): it counts as failed.
type reply struct {
	Call   call
	ID     string // X-Request-ID, joins the reply to the daemons' access logs
	Status int
	Body   []byte
	Err    error

	Due, Sent, Done time.Time
}

// latency is timed from when the request was due, so a generator or server
// stall that delays later sends counts against them.
func (r *reply) latency() time.Duration { return r.Done.Sub(r.Due) }

// late is how long after its due time the generator sent the request.
func (r *reply) late() time.Duration { return r.Sent.Sub(r.Due) }

// openSchedule spreads n calls over a fixed rate: call i is due at i/rate and
// targets rotate round-robin. Each key gets its share of the n calls in
// proportion to its weight (largest remainders), and its calls are spread
// evenly over the phase from a seeded offset, so every seed offers the same
// mix and no seed bunches one key's calls together; only the interleaving
// varies.
func openSchedule(seed uint64, n int, rate float64, weights []float64, targets int) []call {
	var total float64
	for _, w := range weights {
		total += w
	}
	if !(total > 0) {
		return nil
	}
	counts := make([]int, len(weights))
	order := make([]int, len(weights))
	left := n
	for k, w := range weights {
		counts[k] = int(float64(n) * w / total)
		left -= counts[k]
		order[k] = k
	}
	frac := func(k int) float64 { return float64(n)*weights[k]/total - float64(counts[k]) }
	sort.SliceStable(order, func(a, b int) bool { return frac(order[a]) > frac(order[b]) })
	for _, k := range order[:left] {
		counts[k]++
	}
	type slot struct {
		at  float64
		key int
	}
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e))
	slots := make([]slot, 0, n)
	for k, c := range counts {
		offset := rng.Float64()
		for j := 0; j < c; j++ {
			slots = append(slots, slot{(float64(j) + offset) / float64(c), k})
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].at != slots[b].at {
			return slots[a].at < slots[b].at
		}
		return slots[a].key < slots[b].key
	})
	calls := make([]call, n)
	for i, sl := range slots {
		calls[i] = call{Due: time.Duration(float64(i) / rate * float64(time.Second)), Key: sl.key, Target: i % targets}
	}
	return calls
}

// generator sends scheduled calls over at most conns concurrent requests.
type generator struct {
	client  *http.Client
	targets []string
	bodies  [][]byte
}

func newGenerator(targets []string, bodies [][]byte, conns int) *generator {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &generator{client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, targets: targets, bodies: bodies}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// run sends every call of a phase from conns workers. In an open loop a call
// is handed to a worker at its due time, or as soon as one is free when all
// are busy; in a closed loop each worker sends its next call as soon as its
// previous one completes, so a call is due when its connection came free.
func (g *generator) run(ctx context.Context, phase string, calls []call, conns int, closed bool) []reply {
	replies := make([]reply, len(calls))
	work := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for i := range work {
				r := &replies[i]
				r.Call = calls[i]
				r.ID = fmt.Sprintf("%s-%06d", phase, i)
				r.Due = start.Add(calls[i].Due)
				if closed {
					r.Due = free
				}
				r.Sent = time.Now()
				g.send(ctx, r)
				r.Done = time.Now()
				free = r.Done
			}
		}()
	}
dispatch:
	for i := range calls {
		if !closed {
			if err := waitUntil(ctx, start.Add(calls[i].Due)); err != nil {
				break dispatch
			}
		}
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return replies
}

// timerSlack is how early the dispatcher's timer fires before a due time: a
// timer can wake a millisecond or more late on a virtualised host, so the
// last stretch yields in a loop instead, and lateness measures the system
// rather than the timer.
const timerSlack = 2 * time.Millisecond

func waitUntil(ctx context.Context, due time.Time) error {
	if d := time.Until(due) - timerSlack; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return ctx.Err()
}

func (g *generator) send(ctx context.Context, r *reply) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.targets[r.Call.Target]+"/v1/solve", bytes.NewReader(g.bodies[r.Call.Key]))
	if err != nil {
		r.Err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", r.ID)
	resp, err := g.client.Do(req)
	if err != nil {
		r.Err = err
		return
	}
	defer resp.Body.Close()
	r.Status = resp.StatusCode
	r.Body, r.Err = io.ReadAll(resp.Body)
}
