package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/surrogate"
)

// Config parametrises one replica's view of the fleet. The member list is
// static (the Kubernetes manifests under deploy/ derive it from the
// StatefulSet's stable DNS names); health is dynamic, gated on each peer's
// /readyz.
type Config struct {
	// Self is this replica's own base URL as it appears in Peers; requests
	// whose key hashes to Self are owned locally.
	Self string
	// Peers lists every fleet member's base URL, including Self. Order is
	// irrelevant — ownership depends only on the set.
	Peers []string
	// VirtualNodes is the per-member virtual-node count (default 128).
	VirtualNodes int
	// PeerTimeout bounds one peer cache-fill round trip, including the
	// owner's solve when the key is cold fleet-wide (default 10s). An expired
	// fill falls back to a local cold solve, never an error.
	PeerTimeout time.Duration
	// ProbeInterval is the /readyz health-probe period (default 1s). A peer
	// failing its probe (or a fill round trip) leaves the routable ring until
	// a probe succeeds again.
	ProbeInterval time.Duration
	// Obs receives the cluster.* metrics. Nil means no-op.
	Obs obs.Recorder
	// Client overrides the HTTP client used for fills and probes (tests);
	// nil builds one tuned for many small intra-fleet requests.
	Client *http.Client
}

// Enabled reports whether the configuration describes a fleet at all; the
// zero value (single-replica daemon) does not.
func (c Config) Enabled() bool { return len(c.Peers) > 0 }

func (c Config) withDefaults() Config {
	if c.VirtualNodes < 1 {
		c.VirtualNodes = defaultVirtualNodes
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 10 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	return c
}

// PeerRequest is the wire form of POST /v1/peer/get — the intra-fleet
// cache-fill request. The embedded Request carries the original client
// documents (the owner resolves them onto its own defaults, which a fleet
// shares by construction); Key is the requester's computed cache key, which
// the owner verifies against its own resolution so configuration drift
// between replicas surfaces as an explicit key_mismatch instead of silently
// poisoning caches.
type PeerRequest struct {
	engine.Request
	TimeoutMs int64  `json:",omitempty"`
	Key       string `json:",omitempty"`
}

// SourceHeader carries the owner-side provenance of a peer fill (which rung
// of the owner's ladder answered), and ConvergedHeader whether the returned
// answer converged — advisory diagnostics; the body itself is authoritative.
// AnswerContentType marks a body as one encoded answer
// (surrogate.EncodeAnswer); a fill refuses a body of any other type.
const (
	SourceHeader      = "X-Mfgcp-Source"
	ConvergedHeader   = "X-Mfgcp-Converged"
	AnswerContentType = "application/vnd.mfgcp.answer+json"
)

// maxAnswerBytes bounds one peer-fill body at the daemon's default
// request-body cap; an encoded answer, at most 65 samples per series, is
// under 10 KB.
const maxAnswerBytes = 1 << 20

// Cluster is one replica's routing brain: the ring over the static member
// set, the dynamic health view, and the peer-fill client.
type Cluster struct {
	cfg    Config
	rec    obs.Recorder
	ring   *Ring
	client *http.Client

	mu   sync.RWMutex
	down map[string]bool

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New validates the member list and builds the replica's cluster view. Every
// member must be an absolute http(s) URL and Self must be one of them.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	ring := NewRing(cfg.VirtualNodes)
	seen := make(map[string]struct{}, len(cfg.Peers))
	selfSeen := false
	for _, raw := range cfg.Peers {
		m := strings.TrimRight(strings.TrimSpace(raw), "/")
		if m == "" {
			return nil, fmt.Errorf("cluster: empty peer URL in %q", cfg.Peers)
		}
		u, err := url.Parse(m)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q is not an absolute http(s) URL", raw)
		}
		if _, dup := seen[m]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %q", m)
		}
		seen[m] = struct{}{}
		if m == strings.TrimRight(strings.TrimSpace(cfg.Self), "/") {
			selfSeen = true
		}
		ring.Add(m)
	}
	cfg.Self = strings.TrimRight(strings.TrimSpace(cfg.Self), "/")
	if !selfSeen {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		client = &http.Client{Transport: tr}
	}
	return &Cluster{
		cfg:    cfg,
		rec:    obs.OrNop(cfg.Obs),
		ring:   ring,
		client: client,
		down:   make(map[string]bool),
		stopCh: make(chan struct{}),
	}, nil
}

// Self returns this replica's normalised member URL.
func (c *Cluster) Self() string { return c.cfg.Self }

// Members returns the static member set, sorted.
func (c *Cluster) Members() []string { return c.ring.Members() }

// Start launches the background /readyz prober. Peers start optimistic
// (routable) so a freshly formed fleet fills from warm peers immediately; the
// first failed probe or fill round trip takes a dead peer out of the ring.
func (c *Cluster) Start() {
	c.rec.Gauge("cluster.ring.members", float64(c.ring.Len()))
	c.publishHealth()
	c.wg.Add(1)
	go c.probeLoop()
}

// Stop terminates the prober. Idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
}

// Owner resolves key against the ring restricted to healthy members and
// reports whether this replica owns it. A fleet whose every other member is
// down degrades to self-ownership: the replica serves everything locally
// rather than failing.
func (c *Cluster) Owner(key string) (member string, self bool) {
	member = c.ring.OwnerAlive(key, c.Healthy)
	if member == "" {
		// Every member rejected (cannot happen while self is healthy, which
		// it always is from its own perspective) — serve locally.
		return c.cfg.Self, true
	}
	return member, member == c.cfg.Self
}

// Healthy reports whether member is currently routable. Self is always
// healthy from its own perspective.
func (c *Cluster) Healthy(member string) bool {
	if member == c.cfg.Self {
		return true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return !c.down[member]
}

// MarkDown removes a peer from the routable ring immediately — fills call it
// on transport failures so the very next request fails over without waiting
// for the prober.
func (c *Cluster) MarkDown(member string) { c.setDown(member, true) }

func (c *Cluster) setDown(member string, down bool) {
	if member == c.cfg.Self {
		return
	}
	c.mu.Lock()
	changed := c.down[member] != down
	if changed {
		c.down[member] = down
	}
	c.mu.Unlock()
	if !changed {
		return
	}
	if down {
		c.rec.Add("cluster.peer.down", 1)
	} else {
		c.rec.Add("cluster.peer.up", 1)
	}
	c.publishHealth()
}

// publishHealth exports the healthy-member gauge (self included), the signal
// the kill-replica chaos harness waits on before asserting failover.
func (c *Cluster) publishHealth() {
	healthy := 0
	for _, m := range c.ring.Members() {
		if c.Healthy(m) {
			healthy++
		}
	}
	c.rec.Gauge("cluster.peers.healthy", float64(healthy))
}

func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll checks every peer's /readyz concurrently. A draining or dead peer
// answers non-200 (or nothing) and leaves the routable ring; a recovered one
// rejoins on its next successful probe.
func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, m := range c.ring.Members() {
		if m == c.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(member string) {
			defer wg.Done()
			c.setDown(member, !c.probe(member))
		}(m)
	}
	wg.Wait()
}

func (c *Cluster) probe(member string) bool {
	timeout := c.cfg.ProbeInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, member+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// peerError is a non-2xx answer from a peer: an application-level refusal
// (key mismatch, overload, divergence), not evidence the peer is down.
type peerError struct {
	status int
	kind   string
}

func (e *peerError) Error() string {
	return fmt.Sprintf("cluster: peer answered %d (%s)", e.status, e.kind)
}

// Fetch asks owner for the answer of req.Key via POST /v1/peer/get and
// validates the returned body, which becomes the answer's record. The round
// trip is bounded by PeerTimeout and the caller's context, whichever ends
// first. Transport failures — no connection, a read error, a body that ends
// before its declared length — mark the owner down (fast failover) before
// returning; application-level refusals and a body that arrives whole but is
// not an answer (an older owner's archive, an over-size or undecodable body)
// do not. The returned source is the owner-side provenance header.
func (c *Cluster) Fetch(ctx context.Context, owner string, preq PeerRequest) (ans *surrogate.Answer, source string, err error) {
	body, err := json.Marshal(preq)
	if err != nil {
		return nil, "", fmt.Errorf("cluster: encode peer request: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/peer/get", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr := obs.ReqTraceFrom(ctx); tr != nil && tr.ID != "" {
		req.Header.Set("X-Request-ID", tr.ID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		// A peer that cannot be reached at all is out of the fleet until a
		// probe brings it back; the caller solves locally meanwhile.
		c.MarkDown(owner)
		return nil, "", fmt.Errorf("cluster: peer %s unreachable: %w", owner, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error struct {
				Kind string `json:"kind"`
			} `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&envelope)
		return nil, "", &peerError{status: resp.StatusCode, kind: envelope.Error.Kind}
	}
	if ct := resp.Header.Get("Content-Type"); ct != AnswerContentType {
		// A healthy owner of another version: the fill misses, the owner
		// stays routable.
		return nil, "", fmt.Errorf("cluster: peer body is %q, not an answer", ct)
	}
	if resp.ContentLength > maxAnswerBytes {
		return nil, "", fmt.Errorf("cluster: peer answer of %d bytes exceeds %d", resp.ContentLength, maxAnswerBytes)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes+1))
	if err != nil {
		// The answer broke off mid-body: route around the owner as if it
		// were unreachable.
		c.MarkDown(owner)
		return nil, "", fmt.Errorf("cluster: read peer answer: %w", err)
	}
	if len(data) > maxAnswerBytes {
		return nil, "", fmt.Errorf("cluster: peer answer exceeds %d bytes", maxAnswerBytes)
	}
	if ans, err = surrogate.DecodeAnswer(data); err != nil {
		// The bytes arrived but do not decode: treat like corruption — drop
		// the answer and let the caller re-solve; never serve garbage.
		return nil, "", fmt.Errorf("cluster: decode peer answer: %w", err)
	}
	return ans, resp.Header.Get(SourceHeader), nil
}
