package serve

// Source identifies which rung of the serving ladder produced a solve
// response. It travels in the response body (SolveResponse.Source) and is the
// one provenance signal of the API.
type Source string

const (
	// SourceSurrogate: answered by the tier-0 precomputed interpolation
	// table, with the cell's declared error bound attached.
	SourceSurrogate Source = "surrogate"
	// SourceCache: answered by the in-memory LRU of answers.
	SourceCache Source = "cache"
	// SourceStore: answered by the persistent disk tier (and promoted into
	// the LRU on the way out).
	SourceStore Source = "store"
	// SourcePeer: filled from the key's ring-owner replica via /v1/peer/get
	// (and, when converged, promoted into the local LRU on the way out).
	SourcePeer Source = "peer"
	// SourceCoalesced: this request joined another request's in-flight solve
	// and shares its freshly computed answer.
	SourceCoalesced Source = "coalesced"
	// SourceSolve: a fresh engine solve ran for this request.
	SourceSolve Source = "solve"
)
