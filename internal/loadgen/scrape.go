package loadgen

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// ServerCounters are the daemon-side deltas of one load-generation window,
// scraped from /metrics?format=prom before and after the run. They answer the
// questions the client-side latency histogram cannot: how warm the cache
// ladder ran, whether the disk tier served (and whether it shed corruption),
// and whether the circuit breaker tripped under the offered load.
type ServerCounters struct {
	// SurrogateHits, CacheHits, StoreHits and PeerHits count /v1/solve 200s
	// by the rung their body names (serve.solve.source.*): the tier-0
	// interpolation table, the in-memory LRU, the persistent tier and a fill
	// from the key's ring owner. Each answer counts once, so they never sum
	// past SolveRequests; SolvesExecuted counts fresh engine solves.
	SurrogateHits  float64 `json:"surrogate_hits"`
	CacheHits      float64 `json:"cache_hits"`
	StoreHits      float64 `json:"store_hits"`
	SolveRequests  float64 `json:"solve_requests"`
	SolvesExecuted float64 `json:"solves_executed"`
	// The fleet counters: PeerHits as above; PeerMisses counts peer
	// cache-fill round trips that degraded to a local solve; Owned and
	// Forwarded split the local misses by ring ownership.
	PeerHits   float64 `json:"peer_hits"`
	PeerMisses float64 `json:"peer_misses"`
	Owned      float64 `json:"owned"`
	Forwarded  float64 `json:"forwarded"`
	// SurrogateHitRate is SurrogateHits/SolveRequests — how much of the window
	// the precomputed table absorbed before the exact ladder.
	SurrogateHitRate float64 `json:"surrogate_hit_rate"`
	// WarmHitRate is (SurrogateHits+CacheHits+StoreHits+PeerHits)/SolveRequests
	// — the fraction of requests answered without a fresh local solve, across
	// every warm tier of the ladder, at most 1. The kill-and-restart chaos gate
	// asserts it stays positive after a daemon restart.
	WarmHitRate float64 `json:"warm_hit_rate"`
	// StoreCorrupt counts records the store refused to serve (CRC failures).
	StoreCorrupt float64 `json:"store_corrupt"`
	// BreakerOpens and BreakerRejected count breaker trips and the solves they
	// failed fast.
	BreakerOpens    float64 `json:"breaker_opens"`
	BreakerRejected float64 `json:"breaker_rejected"`
}

// ReplicaCounters are one fleet member's counter deltas in a multi-target run.
type ReplicaCounters struct {
	Target string `json:"target"`
	ServerCounters
}

// scrapeProm fetches one Prometheus text exposition and returns its single
// scalar samples (counters and gauges; histogram series keep their suffixed
// names). Labelled series are ignored — the daemon's registry exports none.
func scrapeProm(client *http.Client, target string) (map[string]float64, error) {
	resp, err := client.Get(target + "/metrics?format=prom")
	if err != nil {
		return nil, fmt.Errorf("loadgen: scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape metrics: status %d", resp.StatusCode)
	}
	samples := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: scrape metrics: %w", err)
	}
	return samples, nil
}

// counterDeltas folds two scrapes into the report's server counters. The
// registry renders counters with a _total suffix and dots as underscores
// (store.corrupt.total therefore becomes store_corrupt_total_total).
func counterDeltas(before, after map[string]float64) *ServerCounters {
	d := func(name string) float64 {
		v := after[name] - before[name]
		if v < 0 {
			// The daemon restarted mid-window and its counters reset; the
			// post-restart absolute value is the window's best estimate.
			v = after[name]
		}
		return v
	}
	sc := &ServerCounters{
		SurrogateHits:   d("serve_solve_source_surrogate_total"),
		CacheHits:       d("serve_solve_source_cache_total"),
		StoreHits:       d("serve_solve_source_store_total"),
		SolveRequests:   d("serve_solve_requests_total"),
		SolvesExecuted:  d("serve_solve_executed_total"),
		PeerHits:        d("serve_solve_source_peer_total"),
		PeerMisses:      d("cluster_peer_miss_total"),
		Owned:           d("cluster_owned_total"),
		Forwarded:       d("cluster_forwarded_total"),
		StoreCorrupt:    d("store_corrupt_total_total"),
		BreakerOpens:    d("breaker_open_total"),
		BreakerRejected: d("serve_breaker_rejected_total"),
	}
	sc.fillRates()
	return sc
}

// fillRates derives the hit-rate fields from the raw counters. Every tier
// that answers without running a fresh solve on this replica counts as warm —
// surrogate, LRU, store and peer fills alike. The counts are answers, not
// rung lookups: an owner's LRU hit that serves a peer fill is the requester's
// peer answer, not a second warm answer.
func (sc *ServerCounters) fillRates() {
	if sc.SolveRequests > 0 {
		sc.SurrogateHitRate = sc.SurrogateHits / sc.SolveRequests
		sc.WarmHitRate = (sc.SurrogateHits + sc.CacheHits + sc.StoreHits + sc.PeerHits) / sc.SolveRequests
	}
}

// aggregateCounters folds per-replica deltas into one fleet-wide view; rates
// are recomputed over the summed counters. Returns nil when nothing was
// scraped.
func aggregateCounters(replicas []ReplicaCounters) *ServerCounters {
	if len(replicas) == 0 {
		return nil
	}
	var sum ServerCounters
	for _, r := range replicas {
		sum.SurrogateHits += r.SurrogateHits
		sum.CacheHits += r.CacheHits
		sum.StoreHits += r.StoreHits
		sum.SolveRequests += r.SolveRequests
		sum.SolvesExecuted += r.SolvesExecuted
		sum.PeerHits += r.PeerHits
		sum.PeerMisses += r.PeerMisses
		sum.Owned += r.Owned
		sum.Forwarded += r.Forwarded
		sum.StoreCorrupt += r.StoreCorrupt
		sum.BreakerOpens += r.BreakerOpens
		sum.BreakerRejected += r.BreakerRejected
	}
	sum.fillRates()
	return &sum
}
