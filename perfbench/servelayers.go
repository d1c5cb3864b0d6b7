package main

import (
	"strings"

	"repro/internal/serve"
)

// Server stages the access log reports for a /v1/solve request. Top-level
// stages are disjoint intervals inside the handler; nested ones lie inside a
// top-level stage (the HJB/FPK sweeps inside solve). A stage in neither list
// fails the closure check, so a new stage cannot slip out of the sum.
var (
	topStages    = []string{"surrogate_lookup", "cache_lookup", "store_lookup", "peer_fill", "queue_wait", "solve", "singleflight_wait"}
	nestedStages = []string{"hjb_sweep", "fpk_sweep"}
)

var sourceNames = []serve.Source{serve.SourceSurrogate, serve.SourceCache, serve.SourceStore, serve.SourcePeer, serve.SourceCoalesced, serve.SourceSolve}

// serveLayers computes the serve, cluster, store, surrogate and engine-cache
// per-layer metrics of a timed phase from the replies, the registry delta
// and (traced runs) the access log, and checks attribution closure: every
// succeeded request has exactly one access-log record whose top-level stages
// fit inside its server duration, which fits inside the client's latency;
// the rest of the client latency is serve.other_ms.
func serveLayers(o *outcome, replies []reply, t *tally, d map[string]float64, log *accessLog) {
	n := float64(len(replies))
	bySource := make(map[serve.Source][]float64)
	for i := range replies {
		if src := t.sources[i]; src != "" {
			bySource[src] = append(bySource[src], ms(replies[i].latency()))
		}
	}
	for _, src := range sourceNames {
		o.layer["serve.source_frac."+string(src)] = ratio(float64(t.Sources[src]), n)
		if src != serve.SourceCoalesced {
			o.layer["serve.latency_ms."+string(src)] = median(bySource[src])
		}
	}
	o.layer["serve.shed_frac"] = ratio(float64(t.Shed), n)
	o.layer["engine.cache_hit_frac"] = ratio(d["engine.cache.hit"], d["engine.cache.hit"]+d["engine.cache.miss"])
	o.layer["store.hit_frac"] = ratio(d["store.hit"], d["store.hit"]+d["store.miss"])
	o.layer["store.put_drops"] = d["store.put.dropped"]
	o.layer["cluster.peer_hit_frac"] = ratio(d["cluster.peer_hit"], d["cluster.forwarded"])
	o.layer["cluster.forwarded_frac"] = ratio(d["cluster.forwarded"], d["serve.solve.requests"])
	o.layer["surrogate.hit_frac"] = ratio(d["serve.surrogate.hit"], d["serve.surrogate.hit"]+d["serve.surrogate.miss"])

	solves, err := log.byID("/v1/solve")
	if err != nil {
		o.problem("closure: %v", err)
		return
	}
	known := make(map[string]bool)
	for _, s := range append(append([]string(nil), topStages...), nestedStages...) {
		known[s] = true
	}
	var other, queue, fetch []float64
	gaps := 0
	for i := range replies {
		r := &replies[i]
		src := t.sources[i]
		if src == "" {
			continue
		}
		rec, ok := solves[r.ID]
		if !ok {
			o.problem("closure: %s has no access-log record", r.ID)
			continue
		}
		var top float64
		for stage := range rec.Stages {
			if !known[stage] {
				o.problem("closure: %s reports unknown stage %q", r.ID, stage)
			}
		}
		for _, stage := range topStages {
			top += rec.Stages[stage]
		}
		client := ms(r.Done.Sub(r.Sent))
		if top > rec.DurMs || rec.DurMs > client {
			gaps++
			if gaps <= maxErrors {
				o.problem("closure: %s stages %.3f ms, server %.3f ms, client %.3f ms", r.ID, top, rec.DurMs, client)
			}
		}
		other = append(other, client-top)
		if v, ok := rec.Stages["queue_wait"]; ok {
			queue = append(queue, v)
		}
		if src == serve.SourcePeer {
			fetch = append(fetch, rec.Stages["peer_fill"])
		}
	}
	o.layer["serve.other_ms"] = median(other)
	o.layer["serve.queue_wait_ms"] = median(queue)
	o.layer["cluster.fetch_ms"] = median(fetch)
}

// ownerAnswers counts, from the owners' access logs, which rung answered
// each peer fill the phase's requests caused.
func ownerAnswers(log *accessLog, phase string) (map[serve.Source]int64, error) {
	fills, err := log.byID("/v1/peer/get")
	if err != nil {
		return nil, err
	}
	out := make(map[serve.Source]int64)
	for id, rec := range fills {
		if strings.HasPrefix(id, phase+"-") {
			out[ownerSource(rec)]++
		}
	}
	return out, nil
}

// ownerSource reads which rung of the owner's ladder answered a peer fill
// from the stages its access-log record carries: a coalesced join waits on a
// flight, a fresh solve runs one, a store lookup that neither followed is a
// store hit, and a fill that never reached the store hit the LRU.
func ownerSource(rec accessRecord) serve.Source {
	has := func(s string) bool { _, ok := rec.Stages[s]; return ok }
	switch {
	case has("singleflight_wait"):
		return serve.SourceCoalesced
	case has("solve"):
		return serve.SourceSolve
	case has("store_lookup"):
		return serve.SourceStore
	}
	return serve.SourceCache
}
