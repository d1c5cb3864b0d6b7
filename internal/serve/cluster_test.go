package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

// fleetReplica is one in-process member of a test fleet.
type fleetReplica struct {
	base string
	reg  *obs.Registry
	srv  *Server
}

// startFleet boots n serve.Servers wired into one consistent-hash fleet:
// every replica lists every listener's URL in its peer set. Returns the
// replicas in peer-list order; shutdown is registered on t.Cleanup.
func startFleet(t *testing.T, n int, mutate func(i int, cfg *Config)) []fleetReplica {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	replicas := make([]fleetReplica, n)
	for i := range replicas {
		cfg, reg := testConfig(t)
		cfg.Cluster = cluster.Config{
			Self:          peers[i],
			Peers:         peers,
			PeerTimeout:   10 * time.Second,
			ProbeInterval: 100 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		ln := listeners[i]
		go func() { done <- s.Serve(ctx, ln) }()
		t.Cleanup(func() { cancel(); <-done })
		replicas[i] = fleetReplica{base: peers[i], reg: reg, srv: s}
	}
	return replicas
}

// counterSum totals one counter across the fleet.
func counterSum(replicas []fleetReplica, name string) float64 {
	var sum float64
	for _, r := range replicas {
		sum += r.reg.Snapshot().Counters[name]
	}
	return sum
}

// TestFleetExactlyOneColdSolvePerKey is the tentpole acceptance check: spray
// several unique workloads across every replica of a 3-member fleet and
// require (a) exactly one engine solve per unique key fleet-wide, (b) peer
// fills actually happening (peer_hit > 0), and (c) byte-identical equilibrium
// bodies from every replica regardless of which rung answered.
func TestFleetExactlyOneColdSolvePerKey(t *testing.T) {
	replicas := startFleet(t, 3, nil)

	const uniqueKeys = 4
	bodies := make([]string, uniqueKeys)
	starts := make([]int, uniqueKeys)
	for i := range bodies {
		w := engine.Workload{Requests: float64(10 + i), Pop: float64(1+i) / 10, Timeliness: 3}
		bodies[i] = fmt.Sprintf(`{"Workload": {"Requests": %d, "Pop": 0.%d, "Timeliness": 3}}`, 10+i, 1+i)
		// Ownership hashes the listeners' random ports, so pick where each
		// spray starts from the ring: even bodies reach their owner first
		// (a local owned miss), odd ones a non-owner (a forward).
		starts[i] = firstVisitor(t, replicas, engine.CacheKey(replicas[0].srv.cfg.Solver, w), i%2 == 0)
	}

	// Each unique body visits every replica (mixed-target load): whichever
	// replica is asked first forwards to the key's owner, so the owner solves
	// once and everyone else fills from it.
	answers := make([][]byte, uniqueKeys)
	for i, body := range bodies {
		for k := range replicas {
			j := (starts[i] + k) % len(replicas)
			resp, data := postSolve(t, http.DefaultClient, replicas[j].base, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("body %d via replica %d: status %d body %s", i, j, resp.StatusCode, data)
			}
			stripped := bodyWithoutSource(t, data)
			if answers[i] == nil {
				answers[i] = stripped
			} else if !bytes.Equal(stripped, answers[i]) {
				t.Fatalf("body %d via replica %d: equilibrium differs:\n%s\nvs\n%s", i, j, stripped, answers[i])
			}
		}
	}

	if got := counterSum(replicas, "serve.solve.executed"); got != uniqueKeys {
		t.Errorf("fleet-wide serve.solve.executed = %g, want exactly %d (one cold solve per unique key)", got, uniqueKeys)
	}
	if got := counterSum(replicas, "cluster.peer_hit"); got == 0 {
		t.Error("cluster.peer_hit = 0: no request was filled from its ring owner")
	}
	if got := counterSum(replicas, "cluster.peer_miss"); got != 0 {
		t.Errorf("cluster.peer_miss = %g on a healthy fleet, want 0", got)
	}
	// Routing accounting: every local miss was either owned here or forwarded.
	owned, forwarded := counterSum(replicas, "cluster.owned"), counterSum(replicas, "cluster.forwarded")
	if owned == 0 || forwarded == 0 {
		t.Errorf("cluster.owned = %g, cluster.forwarded = %g: mixed-target load should exercise both paths", owned, forwarded)
	}
}

// TestFleetLoadgenWarmHitRate drives a 3-replica fleet through loadgen's
// generator and scrape with every key visiting every replica once. An owner
// answers the second and third visits' peer fills from its own LRU, but each
// /v1/solve 200 must count once, by the source its body names: the hit counts
// never sum past the requests, and warm_hit_rate stays at most 1.
func TestFleetLoadgenWarmHitRate(t *testing.T) {
	replicas := startFleet(t, 3, nil)
	targets := make([]string, len(replicas))
	for i, r := range replicas {
		targets[i] = r.base
	}
	const keys = 12
	bodies := make([][]byte, keys)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"Workload": {"Requests": %d, "Pop": 0.3, "Timeliness": 2}}`, 6+i))
	}
	// 40 rps for 0.9 s sends about keys × replicas requests: the bodies
	// rotate per request and the target advances per body cycle.
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets: targets, RPS: 40, Duration: 900 * time.Millisecond,
		Bodies: bodies, Validate: true, ScrapeMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Corrupt200s != 0 || rep.Succeeded == 0 {
		t.Fatalf("fleet run failed: %+v", rep)
	}
	srv := rep.Server
	if srv == nil {
		t.Fatal("no scraped counters")
	}
	hits := srv.SurrogateHits + srv.CacheHits + srv.StoreHits + srv.PeerHits
	if srv.WarmHitRate > 1 || hits > srv.SolveRequests {
		t.Errorf("warm_hit_rate %.3f: surrogate %g + cache %g + store %g + peer %g hits over %g requests",
			srv.WarmHitRate, srv.SurrogateHits, srv.CacheHits, srv.StoreHits, srv.PeerHits, srv.SolveRequests)
	}
	if srv.PeerHits == 0 {
		t.Error("no peer answers: the run never reached the fill path")
	}
	var answers float64
	for _, src := range []Source{SourceSurrogate, SourceCache, SourceStore, SourcePeer, SourceCoalesced, SourceSolve} {
		answers += counterSum(replicas, "serve.solve.source."+string(src))
	}
	if answers != float64(rep.Succeeded) || answers != srv.SolveRequests {
		t.Errorf("serve.solve.source.* sum to %g, want one per 200 (%d) and per request (%g)", answers, rep.Succeeded, srv.SolveRequests)
	}
}

// firstVisitor returns the index of a replica that owns key (owner true) or
// does not (owner false), as the ring says.
func firstVisitor(t *testing.T, replicas []fleetReplica, key string, owner bool) int {
	t.Helper()
	for j, r := range replicas {
		if _, self := r.srv.cluster.Owner(key); self == owner {
			return j
		}
	}
	t.Fatalf("no replica with ownership %v of key %q", owner, key)
	return 0
}

// TestFleetConcurrentMixedTargets hammers one identical workload at every
// replica concurrently: the owner's singleflight must collapse the fan-in to
// a single engine solve no matter how the requests interleave.
func TestFleetConcurrentMixedTargets(t *testing.T) {
	replicas := startFleet(t, 3, nil)
	const perReplica = 8
	body := `{"Workload": {"Requests": 42, "Pop": 0.5, "Timeliness": 2}}`

	var wg sync.WaitGroup
	errs := make(chan string, len(replicas)*perReplica)
	var mu sync.Mutex
	var reference []byte
	for _, r := range replicas {
		for i := 0; i < perReplica; i++ {
			wg.Add(1)
			go func(base string) {
				defer wg.Done()
				resp, data := postSolve(t, http.DefaultClient, base, body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("%s: status %d body %s", base, resp.StatusCode, data)
					return
				}
				stripped := bodyWithoutSource(t, data)
				mu.Lock()
				defer mu.Unlock()
				if reference == nil {
					reference = stripped
				} else if !bytes.Equal(stripped, reference) {
					errs <- fmt.Sprintf("%s: equilibrium differs", base)
				}
			}(r.base)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := counterSum(replicas, "serve.solve.executed"); got != 1 {
		t.Errorf("fleet-wide serve.solve.executed = %g under concurrent mixed-target load, want exactly 1", got)
	}
}

// TestFleetPeerAnswerPromoted: after a peer fill, the non-owner replica must
// answer repeats from its own LRU (source "cache") without another fill —
// promotion is what turns the fleet into one big cache instead of a proxy.
func TestFleetPeerAnswerPromoted(t *testing.T) {
	replicas := startFleet(t, 2, nil)
	body := `{"Workload": {"Requests": 9, "Pop": 0.33, "Timeliness": 1}}`

	// Find the non-owner: ask both replicas once, then look at who forwarded.
	for _, r := range replicas {
		if resp, data := postSolve(t, http.DefaultClient, r.base, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", r.base, resp.StatusCode, data)
		}
	}
	var nonOwner *fleetReplica
	for i := range replicas {
		if replicas[i].reg.Snapshot().Counters["cluster.peer_hit"] == 1 {
			nonOwner = &replicas[i]
		}
	}
	if nonOwner == nil {
		t.Fatal("no replica recorded a peer fill")
	}
	resp, data := postSolve(t, http.DefaultClient, nonOwner.base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d body %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decode solve body: %v", err)
	}
	if sr.Source != SourceCache {
		t.Errorf("repeat on the filled replica: source %q, want %q (promoted into LRU)", sr.Source, SourceCache)
	}
	if hits := nonOwner.reg.Snapshot().Counters["cluster.peer_hit"]; hits != 1 {
		t.Errorf("repeat triggered another peer fill: cluster.peer_hit = %g, want 1", hits)
	}

	// A peer reply declares its archive's length up front.
	presp, err := http.Post(nonOwner.base+"/v1/peer/get", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	blob, err := io.ReadAll(presp.Body)
	if err != nil || presp.StatusCode != http.StatusOK {
		t.Fatalf("peer get: status %d err %v", presp.StatusCode, err)
	}
	if got := presp.Header.Get("Content-Length"); got != strconv.Itoa(len(blob)) {
		t.Errorf("peer reply Content-Length %q, body has %d bytes", got, len(blob))
	}
	if got := presp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("peer reply Content-Type %q, want application/octet-stream", got)
	}
	if _, err := engine.UnmarshalEquilibrium(blob); err != nil {
		t.Errorf("peer reply does not decode: %v", err)
	}
}

// TestLateRequestReusesFinishedFlight pins the singleflight's LRU re-check:
// a request that missed the LRU and then spent a while in another rung must
// not start a second cold solve when a flight for its key finished in the
// meantime. A client request parks in a peer fill on a blocking fake owner;
// while it waits, a /v1/peer/get for the same key solves locally and leaves
// its answer in the LRU. Releasing the fill with an error then sends the
// client request to the singleflight, which must answer from the LRU.
func TestLateRequestReusesFinishedFlight(t *testing.T) {
	arrived := make(chan struct{})
	release := make(chan struct{})
	var arriveOnce, releaseOnce sync.Once
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		arriveOnce.Do(func() { close(arrived) })
		<-release
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(fake.Close)
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	cfg, reg := testConfig(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	cfg.Cluster = cluster.Config{
		Self:          self,
		Peers:         []string{self, fake.URL},
		PeerTimeout:   time.Minute,
		ProbeInterval: time.Hour,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-done })

	body := peerOwnedBody(t, s.cfg.Solver, self, fake.URL)
	type reply struct {
		status int
		data   []byte
		err    error
	}
	late := make(chan reply, 1)
	go func() {
		resp, err := http.Post(self+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			late <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		late <- reply{resp.StatusCode, data, err}
	}()
	<-arrived

	resp, data := postSolve2(t, self+"/v1/peer/get", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer get: status %d body %s", resp.StatusCode, data)
	}
	unblock()
	got := <-late
	if got.err != nil {
		t.Fatalf("late request: %v", got.err)
	}
	if got.status != http.StatusOK {
		t.Fatalf("late request: status %d body %s", got.status, got.data)
	}
	if src := sourceOf(t, got.data); src != SourceCache {
		t.Errorf("late request source = %q, want %q", src, SourceCache)
	}
	snap := reg.Snapshot()
	for _, c := range []struct {
		name string
		want float64
	}{
		{"serve.solve.executed", 1},
		{"engine.cache.hit", 1},
		{"cluster.peer_miss", 1},
	} {
		if got := snap.Counters[c.name]; got != c.want {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
}
