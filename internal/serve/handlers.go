package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/policy"
	"repro/internal/surrogate"
)

// SolveRequest is the wire form of POST /v1/solve: the engine.Request
// documents, resolved onto the daemon's defaults, plus TimeoutMs, which
// bounds this solve (clamped to the server maximum).
type SolveRequest struct {
	engine.Request
	TimeoutMs int64 `json:",omitempty"`
}

// SolveResponse summarises one mean-field equilibrium: the dynamic price path
// p(t) (Eq. 17), the population-mean caching control and mean remaining cache
// space, the convergence diagnostics of the best-response iteration, and the
// provenance of the answer.
type SolveResponse struct {
	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`

	Time          []float64 `json:"time"`
	Price         []float64 `json:"price"`
	MeanControl   []float64 `json:"mean_control"`
	MeanRemaining []float64 `json:"mean_remaining"`
	SharerFrac    []float64 `json:"sharer_frac"`

	// Source names the serving-ladder rung that produced this answer:
	// "surrogate", "cache", "store", "peer", "coalesced" or "solve".
	Source Source `json:"source"`
	// ErrorBound is the declared interpolation-error bound of a surrogate
	// answer (the verify-differential metric: sup over time of price/p̂, mean
	// control and q̄/Qk deviations against an exact solve). Exact answers
	// omit it.
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// EpochRequest is the wire form of POST /v1/policy/epoch: a batch of
// per-content workload descriptors (one per content, length must equal
// Params.K) for which the MFG-CP policy determines the epoch's caching
// strategies. Policy selects "mfg-cp" (default) or the sharing-free "mfg".
// Epoch is echoed back. Seed is accepted and unused: it would seed the
// knapsack's utility estimate, and the daemon sets no capacity.
type EpochRequest struct {
	Params    json.RawMessage   `json:",omitempty"`
	Solver    json.RawMessage   `json:",omitempty"`
	Policy    string            `json:",omitempty"`
	Workloads []json.RawMessage `json:",omitempty"`
	Epoch     int               `json:",omitempty"`
	Seed      int64             `json:",omitempty"`
	TimeoutMs int64             `json:",omitempty"`
}

// EpochContent is one content's prepared strategy in an epoch response.
type EpochContent struct {
	Content    int     `json:"content"`
	Requested  bool    `json:"requested"`
	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
	FinalPrice float64 `json:"final_price"`
	Admission  float64 `json:"admission"`
}

// EpochResponse is the wire form of a prepared epoch.
type EpochResponse struct {
	Policy   string         `json:"policy"`
	Epoch    int            `json:"epoch"`
	Contents []EpochContent `json:"contents"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/peer/get", s.handlePeerGet)
	mux.HandleFunc("POST /v1/policy/epoch", s.handleEpoch)
	if s.cfg.Registry != nil {
		// The telemetry surface, mounted on the daemon's own mux so one port
		// serves both the API and its telemetry.
		s.cfg.Registry.Mount(mux)
	}
	return s.instrument(mux)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !s.ready.Load() || s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ready"}`)
}

// handleSolve answers one equilibrium query. The response body carries its
// own provenance (Source, plus ErrorBound for surrogate answers); the
// equilibrium series of identical requests are identical regardless of which
// ladder rung answered, so clients may treat Source as advisory.
//
// The surrogate table, when loaded, is consulted first: an in-trust-region
// request is answered by interpolation in microseconds and never touches the
// cache/store/solver ladder.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, err)
		return
	}
	cfg, wl, err := req.Resolve(s.cfg.Solver)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}

	s.rec.Add("serve.solve.requests", 1)
	if s.surrogate != nil {
		lookupStart := time.Now()
		sum, ok := s.surrogate.Lookup(cfg, wl)
		lookup := time.Since(lookupStart)
		s.rec.Observe("serve.surrogate.lookup.seconds", lookup.Seconds())
		obs.ReqTraceFrom(r.Context()).Observe("surrogate_lookup", lookup)
		if ok {
			s.rec.Add("serve.surrogate.hit", 1)
			writeSolveHeaders(w, false, lookup)
			s.writeAnswer(w, response(sum, SourceSurrogate))
			return
		}
		s.rec.Add("serve.surrogate.miss", 1)
	}

	timeout := s.clampTimeout(req.TimeoutMs)
	ctx, cancel := context.WithTimeout(r.Context(), timeout+time.Second)
	defer cancel()
	isRetry := r.Header.Get("X-Mfgcp-Retry") != ""
	// The raw request documents ride along so a fleet replica can forward
	// them verbatim to the key's ring owner on a local miss.
	docs := &cluster.PeerRequest{Request: req.Request}
	ans, out, err := s.solve(ctx, cfg, wl, timeout, isRetry, docs)
	if err != nil && !(errors.Is(err, engine.ErrNotConverged) && ans != nil) {
		s.writeError(w, err)
		return
	}

	writeSolveHeaders(w, out.Source == SourceCoalesced, out.SolveTime)
	s.writeAnswer(w, response(ans, out.Source))
}

// writeAnswer writes one /v1/solve 200 and counts it exactly once by the rung
// its body names, in serve.solve.source.<source>. The per-rung hit counters
// (engine.cache.hit, store.hit, ...) also count the lookups that answer
// peer fills and epoch solves, so only these add up to the 200s.
func (s *Server) writeAnswer(w http.ResponseWriter, resp SolveResponse) {
	s.rec.Add("serve.solve.source."+string(resp.Source), 1)
	writeJSON(w, http.StatusOK, resp)
}

// writeSolveHeaders emits the per-request coalescing and solve-time headers.
func writeSolveHeaders(w http.ResponseWriter, coalesced bool, solveTime time.Duration) {
	w.Header().Set("X-Mfgcp-Coalesced", strconv.FormatBool(coalesced))
	w.Header().Set("X-Mfgcp-Solve-Ms", strconv.FormatFloat(solveTime.Seconds()*1e3, 'f', 3, 64))
}

// handlePeerGet answers an intra-fleet cache-fill: the requester resolved
// this replica as the key's ring owner and forwarded the client's original
// documents. The request runs through this replica's own full ladder (LRU →
// store → singleflight → workers) with the cluster tier disabled, so every
// cold solve for a key executes exactly once fleet-wide — concurrent fills
// from many replicas coalesce on the owner's singleflight — and a fill never
// re-forwards (no routing loops). The response body is the answer itself,
// encoded whole (surrogate.EncodeAnswer) under cluster.AnswerContentType:
// the requester serves and promotes exactly what the owner would serve, so
// every replica's body for a key is byte-identical. The surrogate tier is
// deliberately skipped: the requester already consulted its own copy of the
// table, and an interpolated answer must not be promoted as an exact one.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeError(w, badRequest(errors.New("serve: peer endpoint disabled (no -peers configured)")))
		return
	}
	var req cluster.PeerRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, err)
		return
	}
	cfg, wl, err := req.Resolve(s.cfg.Solver)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	key := engine.CacheKey(cfg, wl)
	if req.Key != "" && req.Key != key {
		// Configuration drift: the requester and this replica resolve the same
		// documents to different canonical keys (mismatched defaults or
		// quantisation). Refuse explicitly — answering would poison the
		// requester's cache under its own key — and let it solve locally.
		s.rec.Add("cluster.peer.key_mismatch", 1)
		var body errorBody
		body.Error.Kind = "key_mismatch"
		body.Error.Message = fmt.Sprintf("serve: peer key %s does not match owner resolution %s (configuration drift between replicas)", req.Key, key)
		writeJSON(w, http.StatusConflict, body)
		return
	}
	s.rec.Add("cluster.peer.served", 1)
	timeout := s.clampTimeout(req.TimeoutMs)
	ctx, cancel := context.WithTimeout(r.Context(), timeout+time.Second)
	defer cancel()
	ans, out, err := s.solve(ctx, cfg, wl, timeout, false, nil)
	if err != nil && !(errors.Is(err, engine.ErrNotConverged) && ans != nil) {
		s.writeError(w, err)
		return
	}
	body, err := surrogate.EncodeAnswer(ans)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", cluster.AnswerContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set(cluster.SourceHeader, string(out.Source))
	w.Header().Set(cluster.ConvergedHeader, strconv.FormatBool(ans.Converged))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// response shapes one answer as a /v1/solve body from the rung src.
func response(sum *surrogate.Summary, src Source) SolveResponse {
	return SolveResponse{
		Converged:     sum.Converged,
		Iterations:    sum.Iterations,
		Residual:      sum.Residual,
		Time:          sum.Time,
		Price:         sum.Price,
		MeanControl:   sum.MeanControl,
		MeanRemaining: sum.MeanRemaining,
		SharerFrac:    sum.SharerFrac,
		Source:        src,
		ErrorBound:    sum.ErrorBound,
	}
}

// handleEpoch determines one epoch of per-content strategies (Algorithm 1's
// strategy step) by running each requested content through the serving
// ladder the way a /v1/solve of it runs, keyed by the solver config with the
// policy's sharing mode. Epochs and /v1/solve therefore share the LRU, the
// store, singleflight, the worker pool, the queue and the breaker. At most
// Workers contents of one epoch (and no more than the queue holds) are in
// flight at a time, so an epoch never sheds its own contents from the queue.
// Epoch solves are neither forwarded to peers nor retries, and the
// lowest-numbered failing content decides an error response.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	var req EpochRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, err)
		return
	}
	cfg, _, err := engine.Request{Params: req.Params, Solver: req.Solver}.Resolve(s.cfg.Solver)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	p := cfg.Params
	if len(req.Workloads) != p.K {
		s.writeError(w, badRequest(fmt.Errorf("serve: %d workloads for %d contents (Workloads must cover the catalogue)", len(req.Workloads), p.K)))
		return
	}
	workloads := make([]engine.Workload, p.K)
	for k, doc := range req.Workloads {
		wl, err := engine.DecodeWorkload(doc)
		if err != nil {
			s.writeError(w, badRequest(fmt.Errorf("serve: workload %d: %w", k, err)))
			return
		}
		workloads[k] = wl
	}
	name := req.Policy
	if name == "" {
		name = "mfg-cp"
	}
	polIface, err := policy.ByName(name)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	pol, ok := polIface.(*policy.MFGCP)
	if !ok {
		s.writeError(w, badRequest(fmt.Errorf("serve: policy %q has no equilibrium strategy; the epoch endpoint serves mfg-cp and mfg", name)))
		return
	}
	cfg.ShareEnabled = pol.Share

	s.rec.Add("serve.epoch.requests", 1)
	timeout := s.clampTimeout(req.TimeoutMs)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	answers := make([]*surrogate.Summary, p.K)
	s.rec.Add("serve.epoch.executed", 1)
	start := time.Now()
	if err := engine.Each(p.K, min(s.cfg.Workers, s.cfg.QueueDepth), func(_, k int) error {
		if workloads[k].Requests <= 0 {
			return nil // not in K': no demand this epoch
		}
		if err := ctx.Err(); err != nil {
			// The epoch is past its deadline or its client left: start no
			// more solves for it.
			return fmt.Errorf("serve: content %d: %w", k, err)
		}
		ans, _, err := s.solve(ctx, cfg, workloads[k], timeout, false, nil)
		if err != nil && !(errors.Is(err, engine.ErrNotConverged) && ans != nil) {
			return fmt.Errorf("serve: content %d: %w", k, err)
		}
		answers[k] = ans
		return nil
	}); err != nil {
		s.writeError(w, err)
		return
	}
	s.rec.Observe("serve.epoch.seconds", time.Since(start).Seconds())

	resp := EpochResponse{Policy: pol.Name(), Epoch: req.Epoch, Contents: make([]EpochContent, p.K)}
	for k, ans := range answers {
		c := EpochContent{Content: k, Admission: 1}
		if ans != nil {
			c.Requested = true
			c.Converged = ans.Converged
			c.Iterations = ans.Iterations
			if n := len(ans.Price); n > 0 {
				// The last sample is the last time level's price.
				c.FinalPrice = ans.Price[n-1]
			}
		}
		resp.Contents[k] = c
	}
	writeJSON(w, http.StatusOK, resp)
}

// requestError marks an error as the caller's fault (HTTP 400).
type requestError struct{ err error }

func (e requestError) Error() string { return e.err.Error() }
func (e requestError) Unwrap() error { return e.err }

func badRequest(err error) error { return requestError{err} }

// decodeBody strictly decodes a bounded JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest(fmt.Errorf("serve: decode request: %w", err))
	}
	return nil
}

// writeError maps an error onto the uniform envelope:
//
//	400 invalid_request — malformed or invalid request documents
//	429 overloaded      — queue full or retry budget dry, retry after backoff
//	422 diverged        — the best-response iteration produced garbage
//	503 breaker_open    — the solver circuit breaker is failing fast
//	504 interrupted     — deadline or shutdown cancelled the solve
//	500 internal        — anything else
//
// 429 and 503 carry a jittered Retry-After so a synchronised client fleet
// does not reconverge on the daemon (or on the breaker's half-open window)
// in one thundering herd. ErrNotConverged is not an error at this layer: the
// partial equilibrium is returned as a 200 with converged=false.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	kind, status := "internal", http.StatusInternalServerError
	var reqErr requestError
	var open *breakerOpenError
	switch {
	case errors.As(err, &reqErr), errors.As(err, new(*pde.ErrCFLViolation)):
		kind, status = "invalid_request", http.StatusBadRequest
	case errors.As(err, &open):
		kind, status = "breaker_open", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(open.retryAfter))
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrRetryBudget):
		kind, status = "overloaded", http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
	case errors.Is(err, engine.ErrDiverged):
		kind, status = "diverged", http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		kind, status = "interrupted", http.StatusGatewayTimeout
	}
	var body errorBody
	body.Error.Kind = kind
	body.Error.Message = err.Error()
	writeJSON(w, status, body)
}

// retryAfterSeconds renders a backoff hint with up to +3s of jitter, rounded
// up to whole seconds (Retry-After's unit; never below 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs+int64(rand.IntN(4)), 10)
}

// writeJSON writes one JSON response, buffered so an encode failure cannot
// truncate a 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, `{"error":{"kind":"internal","message":"encode response"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
