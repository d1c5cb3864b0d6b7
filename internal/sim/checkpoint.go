package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
)

// Checkpointing makes a market run restartable: at every epoch boundary the
// simulator snapshots the complete mutable state — agent positions and cache
// levels, the RNG stream position (as seed + draw count), the accumulated
// ledgers and statistics, the policy's prepared strategy and the equilibrium
// cache — into one file, written atomically (write-temp-then-rename) so a
// kill at any instant leaves either the previous or the new snapshot intact,
// never a torn one. A resumed run replays bit-for-bit: its final Result
// (utilities, densities, ledgers) is identical to an uninterrupted run of the
// same seed.

// CheckpointConfig configures epoch-boundary snapshots of a market run.
type CheckpointConfig struct {
	// Dir is the snapshot directory; empty disables checkpointing.
	Dir string
	// Every writes a snapshot after every Every-th completed epoch
	// (default 1 = every epoch). The final epoch is always snapshotted.
	Every int
	// Resume restores the run from the snapshot in Dir before the first
	// epoch. A missing snapshot starts fresh; a corrupt or mismatched one
	// fails the run with a structured error.
	Resume bool
}

// Validate checks the checkpoint configuration.
func (c CheckpointConfig) Validate() error {
	if c.Every < 0 {
		return fmt.Errorf("sim: checkpoint Every must be non-negative, got %d", c.Every)
	}
	if c.Dir == "" && c.Resume {
		return fmt.Errorf("sim: checkpoint Resume requires a checkpoint Dir")
	}
	return nil
}

const (
	checkpointFile    = "market.ckpt"
	checkpointMagic   = "mfgcp-market-checkpoint"
	checkpointVersion = 1
)

var (
	// ErrCheckpointCorrupt wraps snapshot files that fail to decode or whose
	// checksum does not match (truncated writes, bit rot, foreign files).
	ErrCheckpointCorrupt = errors.New("sim: checkpoint corrupt")
	// ErrCheckpointVersion flags snapshots written by an incompatible layout.
	ErrCheckpointVersion = errors.New("sim: checkpoint version unsupported")
	// ErrCheckpointMismatch flags snapshots whose run configuration (seed,
	// population, policy, epoch geometry) differs from the resuming run's.
	ErrCheckpointMismatch = errors.New("sim: checkpoint does not match configuration")
)

// AgentState is one EDP's snapshotted state.
type AgentState struct {
	X, Y, H float64
	Q       []float64
}

// RequesterState is one requester's snapshotted state.
type RequesterState struct {
	X, Y, H float64
	Home    int
}

// Checkpoint is an epoch-boundary snapshot of a market run.
type Checkpoint struct {
	// Identity of the run; resume validates these against the configuration.
	Seed          int64
	PolicyName    string
	M, K          int
	Epochs        int
	StepsPerEpoch int
	RequesterJ    int

	// NextEpoch is the first epoch a resumed run executes.
	NextEpoch int
	// RNGDraws is the simulation stream position: a resumed run re-seeds the
	// stream and skips this many draws, reproducing it bit-exactly.
	RNGDraws uint64
	// Prepared records whether any epoch successfully prepared a strategy
	// (the fault-degradation fallback decision depends on it).
	Prepared bool
	// DegradedEpochs is the fault error budget consumed so far.
	DegradedEpochs int

	Agents       []AgentState
	Requesters   []RequesterState
	Ledgers      []Ledger
	Stats        []EpochStats
	StrategyTime time.Duration

	// PolicyState is the policy's opaque prepared-strategy snapshot (nil for
	// stateless policies); CacheKeys/CacheBlobs persist the equilibrium cache
	// in LRU order.
	PolicyState []byte
	CacheKeys   []string
	CacheBlobs  [][]byte
}

// checkpointEnvelope is the on-disk frame: a magic string, a format version
// and a CRC over the gob-encoded Checkpoint, so truncation and corruption are
// detected before any field is trusted.
type checkpointEnvelope struct {
	Magic   string
	Version int
	Sum     uint32
	Data    []byte
}

// WriteCheckpoint atomically writes ck into dir: the snapshot is encoded and
// fsynced to a temporary file in the same directory and then renamed over the
// previous one, so readers observe either the old or the new snapshot.
func WriteCheckpoint(dir string, ck *Checkpoint) (retErr error) {
	if dir == "" {
		return fmt.Errorf("sim: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sim: create checkpoint dir: %w", err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	env := checkpointEnvelope{
		Magic:   checkpointMagic,
		Version: checkpointVersion,
		Sum:     crc32.ChecksumIEEE(payload.Bytes()),
		Data:    payload.Bytes(),
	}
	var frame bytes.Buffer
	if err := gob.NewEncoder(&frame).Encode(env); err != nil {
		return fmt.Errorf("sim: encode checkpoint envelope: %w", err)
	}

	tmp, err := os.CreateTemp(dir, ".market.ckpt.tmp-*")
	if err != nil {
		return fmt.Errorf("sim: create checkpoint temp file: %w", err)
	}
	defer func() {
		if retErr != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(frame.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("sim: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sim: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sim: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, checkpointFile)); err != nil {
		return fmt.Errorf("sim: publish checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads the snapshot in dir. A missing snapshot returns an
// error satisfying errors.Is(err, fs.ErrNotExist); corrupt or truncated files
// return ErrCheckpointCorrupt, incompatible layouts ErrCheckpointVersion.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	f, err := os.Open(filepath.Join(dir, checkpointFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeCheckpoint(f)
}

// decodeCheckpoint decodes and verifies one snapshot stream. It never
// panics: any malformed input maps onto a structured error (the fuzz target
// FuzzCheckpointDecode pins this contract).
func decodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var env checkpointEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: decode envelope: %v", ErrCheckpointCorrupt, err)
	}
	if env.Magic != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, env.Magic)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCheckpointVersion, env.Version, checkpointVersion)
	}
	if sum := crc32.ChecksumIEEE(env.Data); sum != env.Sum {
		return nil, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCheckpointCorrupt, sum, env.Sum)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(env.Data)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("%w: decode payload: %v", ErrCheckpointCorrupt, err)
	}
	if err := ck.sane(); err != nil {
		return nil, err
	}
	return &ck, nil
}

// sane cross-checks the internal consistency of a decoded snapshot.
func (ck *Checkpoint) sane() error {
	switch {
	case ck.M < 1 || ck.K < 1:
		return fmt.Errorf("%w: population %d×%d", ErrCheckpointCorrupt, ck.M, ck.K)
	case len(ck.Agents) != ck.M:
		return fmt.Errorf("%w: %d agents for M=%d", ErrCheckpointCorrupt, len(ck.Agents), ck.M)
	case len(ck.Ledgers) != ck.M:
		return fmt.Errorf("%w: %d ledgers for M=%d", ErrCheckpointCorrupt, len(ck.Ledgers), ck.M)
	case ck.NextEpoch < 0 || ck.NextEpoch > ck.Epochs:
		return fmt.Errorf("%w: next epoch %d of %d", ErrCheckpointCorrupt, ck.NextEpoch, ck.Epochs)
	case len(ck.Requesters) != ck.RequesterJ:
		return fmt.Errorf("%w: %d requesters for J=%d", ErrCheckpointCorrupt, len(ck.Requesters), ck.RequesterJ)
	case len(ck.CacheKeys) != len(ck.CacheBlobs):
		return fmt.Errorf("%w: %d cache keys for %d blobs", ErrCheckpointCorrupt, len(ck.CacheKeys), len(ck.CacheBlobs))
	}
	for i, a := range ck.Agents {
		if len(a.Q) != ck.K {
			return fmt.Errorf("%w: agent %d has %d contents for K=%d", ErrCheckpointCorrupt, i, len(a.Q), ck.K)
		}
	}
	return nil
}

// heldState is the part of an epoch-boundary snapshot the next epoch's
// Prepare may change: the policy's prepared strategy and the equilibrium
// cache. It is taken when the epoch's strategy is ready, before the next
// Prepare starts, and the rest of the snapshot after the epoch trades.
type heldState struct {
	policy     []byte
	cacheKeys  []string
	cacheBlobs [][]byte
}

// holdState captures the policy's prepared strategy (nil for stateless
// policies) and the equilibrium cache in LRU order.
func holdState(cfg *Config, cache *engine.Cache) (*heldState, error) {
	h := &heldState{}
	if pc, ok := cfg.Policy.(policyCheckpointer); ok {
		st, err := pc.CheckpointState()
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint policy state: %w", err)
		}
		h.policy = st
	}
	if cache != nil {
		for _, e := range cache.Export() {
			blob, err := engine.MarshalEquilibrium(e.Value)
			if err != nil {
				return nil, fmt.Errorf("sim: checkpoint cache entry %q: %w", e.Key, err)
			}
			h.cacheKeys = append(h.cacheKeys, e.Key)
			h.cacheBlobs = append(h.cacheBlobs, blob)
		}
	}
	return h, nil
}

// snapshotRun assembles the complete mutable run state after a completed
// epoch from the state held at the epoch's strategy: nextEpoch is the first
// epoch a resumed run executes and draws the simulation-stream position at
// that boundary.
func snapshotRun(cfg *Config, agents []edp, requesters *requesterPopulation, res *Result,
	held *heldState, nextEpoch int, draws uint64, prepared bool, degraded int) *Checkpoint {
	p := cfg.Params
	ck := &Checkpoint{
		Seed:           cfg.Seed,
		PolicyName:     cfg.Policy.Name(),
		M:              p.M,
		K:              p.K,
		Epochs:         cfg.Epochs,
		StepsPerEpoch:  cfg.StepsPerEpoch,
		RequesterJ:     cfg.Requesters.J,
		NextEpoch:      nextEpoch,
		RNGDraws:       draws,
		Prepared:       prepared,
		DegradedEpochs: degraded,
		Agents:         make([]AgentState, len(agents)),
		Ledgers:        append([]Ledger(nil), res.Ledgers...),
		Stats:          append([]EpochStats(nil), res.Stats...),
		StrategyTime:   res.StrategyTime,
		PolicyState:    held.policy,
		CacheKeys:      held.cacheKeys,
		CacheBlobs:     held.cacheBlobs,
	}
	for i, a := range agents {
		ck.Agents[i] = AgentState{X: a.x, Y: a.y, H: a.h, Q: append([]float64(nil), a.q...)}
	}
	if requesters != nil {
		ck.Requesters = make([]RequesterState, len(requesters.rs))
		for i, r := range requesters.rs {
			ck.Requesters[i] = RequesterState{X: r.x, Y: r.y, H: r.h, Home: r.home}
		}
	}
	return ck
}

// restoreRun applies a validated snapshot onto freshly initialised run state.
// The RNG stream is restored separately by the caller (re-seed + skip).
func restoreRun(ck *Checkpoint, cfg *Config, agents []edp, requesters *requesterPopulation,
	res *Result, cache *engine.Cache) error {
	for i := range agents {
		a := ck.Agents[i]
		agents[i].x, agents[i].y, agents[i].h = a.X, a.Y, a.H
		copy(agents[i].q, a.Q)
	}
	if requesters != nil {
		for i := range requesters.rs {
			r := ck.Requesters[i]
			requesters.rs[i] = requester{x: r.X, y: r.Y, h: r.H, home: r.Home}
		}
	}
	copy(res.Ledgers, ck.Ledgers)
	res.Stats = append([]EpochStats(nil), ck.Stats...)
	res.StrategyTime = ck.StrategyTime
	if len(ck.PolicyState) > 0 {
		pc, ok := cfg.Policy.(policyCheckpointer)
		if !ok {
			return fmt.Errorf("%w: snapshot carries policy state but policy %q cannot restore it",
				ErrCheckpointMismatch, cfg.Policy.Name())
		}
		if err := pc.RestoreState(ck.PolicyState); err != nil {
			return err
		}
	}
	if cache != nil && len(ck.CacheKeys) > 0 {
		entries := make([]engine.CacheExportEntry, len(ck.CacheKeys))
		for i := range ck.CacheKeys {
			eq, err := engine.UnmarshalEquilibrium(ck.CacheBlobs[i])
			if err != nil {
				return fmt.Errorf("sim: restore cache entry %q: %w", ck.CacheKeys[i], err)
			}
			entries[i] = engine.CacheExportEntry{Key: ck.CacheKeys[i], Value: eq}
		}
		cache.Restore(entries)
	}
	return nil
}

// matches validates the snapshot against the resuming run's configuration.
func (ck *Checkpoint) matches(cfg *Config) error {
	p := cfg.Params
	switch {
	case ck.Seed != cfg.Seed:
		return fmt.Errorf("%w: seed %d vs %d", ErrCheckpointMismatch, ck.Seed, cfg.Seed)
	case ck.PolicyName != cfg.Policy.Name():
		return fmt.Errorf("%w: policy %q vs %q", ErrCheckpointMismatch, ck.PolicyName, cfg.Policy.Name())
	case ck.M != p.M || ck.K != p.K:
		return fmt.Errorf("%w: population %d×%d vs %d×%d", ErrCheckpointMismatch, ck.M, ck.K, p.M, p.K)
	case ck.Epochs != cfg.Epochs:
		return fmt.Errorf("%w: %d epochs vs %d", ErrCheckpointMismatch, ck.Epochs, cfg.Epochs)
	case ck.StepsPerEpoch != cfg.StepsPerEpoch:
		return fmt.Errorf("%w: %d steps/epoch vs %d", ErrCheckpointMismatch, ck.StepsPerEpoch, cfg.StepsPerEpoch)
	case ck.RequesterJ != cfg.Requesters.J:
		return fmt.Errorf("%w: %d requesters vs %d", ErrCheckpointMismatch, ck.RequesterJ, cfg.Requesters.J)
	}
	return nil
}
