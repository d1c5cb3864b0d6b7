package sde

import (
	"math/rand"
)

// NewRNG returns a deterministic RNG for the given seed. All stochastic
// components of the repository (simulator, trace generator, Monte-Carlo
// validation) derive their randomness from explicitly seeded streams so every
// experiment is exactly reproducible.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// CountingSource wraps the standard math/rand source and counts draws, so a
// stream's position can be checkpointed as (seed, draws) and restored
// bit-exactly. The standard source advances its state exactly once per
// Int63/Uint64 call (Int63 is Uint64 masked), so skipping the recorded number
// of draws on a freshly seeded source reproduces the stream position without
// serialising the opaque generator state.
type CountingSource struct {
	src   rand.Source64
	draws uint64
}

// NewCountingSource returns a counting source seeded like NewRNG, so
// rand.New(NewCountingSource(seed)) yields the exact stream of NewRNG(seed).
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *CountingSource) Int63() int64 { s.draws++; return s.src.Int63() }

// Uint64 implements rand.Source64.
func (s *CountingSource) Uint64() uint64 { s.draws++; return s.src.Uint64() }

// Seed implements rand.Source, resetting the draw counter.
func (s *CountingSource) Seed(seed int64) {
	s.src.(rand.Source).Seed(seed)
	s.draws = 0
}

// Draws returns the number of draws consumed so far.
func (s *CountingSource) Draws() uint64 { return s.draws }

// Skip advances the stream by n draws without handing out values — the replay
// half of the (seed, draws) checkpoint contract.
func (s *CountingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws += n
}

// SplitMix advances a 64-bit SplitMix state and returns the next value.
// It is used to derive independent per-entity seeds (one per EDP, one per
// content) from a single experiment seed without correlation between streams.
func SplitMix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives the i-th child seed from a parent
// seed. Children with distinct indices are statistically independent.
func DeriveSeed(parent int64, i int) int64 {
	state := uint64(parent) ^ 0xd1b54a32d192ed03
	for k := 0; k <= i%8; k++ {
		SplitMix(&state)
	}
	state ^= uint64(i) * 0x9e3779b97f4a7c15
	return int64(SplitMix(&state))
}

// NewChildRNG returns a deterministic RNG for child stream i of a parent seed.
func NewChildRNG(parent int64, i int) *rand.Rand {
	return NewRNG(DeriveSeed(parent, i))
}
