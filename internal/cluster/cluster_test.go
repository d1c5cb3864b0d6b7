package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/surrogate"
)

func testFleet(t *testing.T, self string, peers ...string) *Cluster {
	t.Helper()
	c, err := New(Config{Self: self, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		wantE string
	}{
		{"no peers", Config{Self: "http://a:1"}, "no peers"},
		{"relative URL", Config{Self: "http://a:1", Peers: []string{"http://a:1", "b:2"}}, "absolute"},
		{"bad scheme", Config{Self: "http://a:1", Peers: []string{"http://a:1", "ftp://b:2"}}, "absolute"},
		{"duplicate", Config{Self: "http://a:1", Peers: []string{"http://a:1", "http://a:1/"}}, "duplicate"},
		{"empty entry", Config{Self: "http://a:1", Peers: []string{"http://a:1", ""}}, "empty"},
		{"self missing", Config{Self: "http://c:3", Peers: []string{"http://a:1", "http://b:2"}}, "not in the peer list"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.wantE) {
				t.Errorf("New(%+v) error = %v, want containing %q", tc.cfg, err, tc.wantE)
			}
		})
	}

	// Normalisation: trailing slashes and whitespace are cosmetic.
	c := testFleet(t, " http://a:1/ ", "http://a:1/", "http://b:2")
	if c.Self() != "http://a:1" {
		t.Errorf("Self = %q, want normalised http://a:1", c.Self())
	}
	if got := c.Members(); len(got) != 2 {
		t.Errorf("Members = %v", got)
	}
}

func TestOwnerDegradesToSelfWhenFleetDown(t *testing.T) {
	c := testFleet(t, "http://a:1", "http://a:1", "http://b:2", "http://c:3")
	c.MarkDown("http://b:2")
	c.MarkDown("http://c:3")
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5"} {
		if owner, self := c.Owner(key); !self || owner != "http://a:1" {
			t.Errorf("key %q: owner %q self=%v, want self with every peer down", key, owner, self)
		}
	}
}

func TestOwnerSkipsDownPeers(t *testing.T) {
	c := testFleet(t, "http://a:1", "http://a:1", "http://b:2", "http://c:3")
	// Find a key owned by b, then kill b: ownership must move off b without
	// touching keys owned by others.
	var key string
	for _, k := range sampleKeys(t, 50) {
		if owner, _ := c.Owner(k); owner == "http://b:2" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no sampled key owned by http://b:2")
	}
	c.MarkDown("http://b:2")
	owner, _ := c.Owner(key)
	if owner == "http://b:2" {
		t.Fatal("key still routed to a down peer")
	}
	// Recovery restores the original owner.
	c.setDown("http://b:2", false)
	if got, _ := c.Owner(key); got != "http://b:2" {
		t.Errorf("after recovery owner = %q, want http://b:2", got)
	}
}

func TestProbeFlipsHealth(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" || !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	c, err := New(Config{
		Self:          "http://self:1",
		Peers:         []string{"http://self:1", peer.URL},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitHealth := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if c.Healthy(peer.URL) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("peer health never became %v", want)
	}
	waitHealth(true)
	healthy.Store(false)
	waitHealth(false)
	healthy.Store(true)
	waitHealth(true)
}

// answerBody encodes a small answer of two samples.
func answerBody(t *testing.T) []byte {
	t.Helper()
	two := func(a, b float64) []float64 { return []float64{a, b} }
	ans, err := surrogate.EncodeAnswer(&surrogate.Summary{Converged: true, Iterations: 3, Residual: 1e-7,
		Time: two(0, 1), Price: two(1.5, 1.4), MeanControl: two(0.2, 0.25), MeanRemaining: two(3, 2.8), SharerFrac: two(0.1, 0.15)})
	if err != nil {
		t.Fatal(err)
	}
	return ans.Record()
}

func TestFetchRoundTrip(t *testing.T) {
	blob := answerBody(t)
	var gotKey atomic.Value
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/peer/get" {
			http.NotFound(w, r)
			return
		}
		var preq PeerRequest
		if err := readJSON(r, &preq); err != nil {
			t.Errorf("decode peer request: %v", err)
		}
		gotKey.Store(preq.Key)
		w.Header().Set("Content-Type", AnswerContentType)
		w.Header().Set(SourceHeader, "cache")
		w.Header().Set(ConvergedHeader, "true")
		_, _ = w.Write(blob)
	}))
	defer owner.Close()

	c := testFleet(t, "http://self:1", "http://self:1", owner.URL)
	got, source, err := c.Fetch(context.Background(), owner.URL, PeerRequest{Key: "the-key"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged() || got.Iterations() != 3 || got.FinalPrice() != 1.4 || !bytes.Equal(got.Record(), blob) {
		t.Errorf("fetched answer %s, want the owner's converged 3-iteration one", got.Record())
	}
	if source != "cache" {
		t.Errorf("source = %q, want cache", source)
	}
	if gotKey.Load() != "the-key" {
		t.Errorf("owner saw key %v, want the-key", gotKey.Load())
	}
}

func TestFetchUnreachableMarksDown(t *testing.T) {
	// A listener that is immediately closed: connection refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c := testFleet(t, "http://self:1", "http://self:1", deadURL)
	if !c.Healthy(deadURL) {
		t.Fatal("peer should start optimistic")
	}
	if _, _, err := c.Fetch(context.Background(), deadURL, PeerRequest{Key: "k"}); err == nil {
		t.Fatal("Fetch against a dead peer succeeded")
	}
	if c.Healthy(deadURL) {
		t.Error("transport failure did not mark the peer down")
	}
}

func TestFetchApplicationRefusal(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		_, _ = w.Write([]byte(`{"error":{"kind":"key_mismatch","message":"drift"}}`))
	}))
	defer owner.Close()

	c := testFleet(t, "http://self:1", "http://self:1", owner.URL)
	_, _, err := c.Fetch(context.Background(), owner.URL, PeerRequest{Key: "k"})
	if err == nil || !strings.Contains(err.Error(), "key_mismatch") {
		t.Fatalf("err = %v, want key_mismatch refusal", err)
	}
	// An application-level refusal is not evidence the peer is down.
	if !c.Healthy(owner.URL) {
		t.Error("4xx refusal marked the peer down")
	}
}

func TestFetchGarbageBlob(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", AnswerContentType)
		_, _ = w.Write([]byte("not an answer"))
	}))
	defer owner.Close()

	c := testFleet(t, "http://self:1", "http://self:1", owner.URL)
	if _, _, err := c.Fetch(context.Background(), owner.URL, PeerRequest{Key: "k"}); err == nil {
		t.Fatal("garbage body decoded successfully")
	}
	if !c.Healthy(owner.URL) {
		t.Error("a whole body that does not decode marked the peer down")
	}
}

func TestFetchOversizeBlob(t *testing.T) {
	// A chunked body carries no length and is caught by the bounded read. A
	// declared length is refused before the body is read: this owner declares
	// one and then sends nothing, so reading would wait out PeerTimeout.
	for _, declared := range []bool{false, true} {
		owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", AnswerContentType)
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(2*maxAnswerBytes))
				w.WriteHeader(http.StatusOK)
				w.(http.Flusher).Flush()
				<-r.Context().Done()
				return
			}
			_, _ = w.Write(make([]byte, maxAnswerBytes+1))
		}))
		defer owner.Close()

		c, err := New(Config{Self: "http://self:1", Peers: []string{"http://self:1", owner.URL}, PeerTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Fetch(context.Background(), owner.URL, PeerRequest{Key: "k"}); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("declared length %v: err = %v, want over-size rejection", declared, err)
		}
		if !c.Healthy(owner.URL) {
			t.Errorf("declared length %v: an over-size answer marked the peer down", declared)
		}
	}
}

// TestFetchDeclaredBodyFaults separates the two ways a declared-length
// answer can fail. A body that ends before its declared length is a
// transport failure and marks the owner down. A body that arrives whole but
// is cut short of a whole answer, its declared length agreeing, is a format
// failure: the fetch fails and the owner stays routable.
func TestFetchDeclaredBodyFaults(t *testing.T) {
	blob := answerBody(t)
	cases := []struct {
		name     string
		declared int
		body     []byte
		wantErr  bool
		wantDown bool
	}{
		{"whole answer", len(blob), blob, false, false},
		{"body ends early", len(blob), blob[:len(blob)-24], true, true},
		{"whole body cut short of an answer", len(blob) - 24, blob[:len(blob)-24], true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", AnswerContentType)
				w.Header().Set("Content-Length", strconv.Itoa(tc.declared))
				_, _ = w.Write(tc.body)
			}))
			defer owner.Close()
			c := testFleet(t, "http://self:1", "http://self:1", owner.URL)
			ans, _, err := c.Fetch(context.Background(), owner.URL, PeerRequest{Key: "k"})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want an error %v", err, tc.wantErr)
			}
			if err == nil && !bytes.Equal(ans.Record(), tc.body) {
				t.Errorf("fetched record %s, want %s", ans.Record(), tc.body)
			}
			if down := !c.Healthy(owner.URL); down != tc.wantDown {
				t.Errorf("owner marked down = %v, want %v (err %v)", down, tc.wantDown, err)
			}
		})
	}
}

// TestFetchRefusesOtherContentTypes: a healthy owner of another version
// answers with an archive (application/octet-stream) or some other body.
// Either is a failed fill that leaves the owner routable, even when the
// bytes would decode as an answer.
func TestFetchRefusesOtherContentTypes(t *testing.T) {
	for _, ct := range []string{"application/octet-stream", "application/json", ""} {
		owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", ct)
			_, _ = w.Write(answerBody(t))
		}))
		c := testFleet(t, "http://self:1", "http://self:1", owner.URL)
		if _, _, err := c.Fetch(context.Background(), owner.URL, PeerRequest{Key: "k"}); err == nil || !strings.Contains(err.Error(), "not an answer") {
			t.Errorf("Content-Type %q: err = %v, want a refusal", ct, err)
		}
		if !c.Healthy(owner.URL) {
			t.Errorf("Content-Type %q marked the peer down", ct)
		}
		owner.Close()
	}
}

func readJSON(r *http.Request, dst any) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(dst)
}
