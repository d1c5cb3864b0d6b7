// Package store is the crash-safe persistent cache tier below the serving
// daemon's in-memory LRU: an append-only segment-file store keyed by the
// canonical quantised engine.CacheKey, so a daemon restart comes up warm
// instead of cold-starting the fleet into the PDE path.
//
// Durability model:
//
//   - writes are write-behind: Put enqueues onto a bounded queue and never
//     blocks the solve path; a full queue drops the write (the record is a
//     cache entry, not the system of record) and counts it;
//   - the active segment is appended in place; a segment roll fsyncs the
//     sealed file before opening the next one, and Close fsyncs the active
//     tail, so a clean shutdown loses nothing and a SIGKILL loses at most the
//     not-yet-synced tail of the active segment;
//   - startup recovery scans every segment through the record envelope
//     (magic/version/CRC32): a torn tail is truncated away (the valid prefix
//     is retained), a CRC-failed record is skipped, logged and counted in
//     store.corrupt — recovery never fails on bad data, it only sheds it;
//   - reads re-verify the CRC on every Get, so a record that rots after
//     startup is dropped from the index and reported as a miss — the store
//     never returns bytes whose checksum does not match;
//   - the disk budget is enforced by segment-granular compaction: when total
//     bytes exceed MaxDiskBytes the oldest sealed segments are deleted and
//     their keys evicted. Keys are immutable (the mean-field equilibrium for
//     a key is unique), so a record is superseded only after Forget, and
//     dropping the oldest segment evicts exactly the coldest-by-insertion
//     entries.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Config parametrises one store.
type Config struct {
	// Dir is the segment directory; it is created when missing.
	Dir string
	// MaxDiskBytes bounds the total segment bytes on disk; exceeding it
	// triggers compaction (default 256 MiB; minimum one segment).
	MaxDiskBytes int64
	// SegmentBytes is the roll threshold of the active segment (default
	// 8 MiB). Tests shrink it to force rolls and compaction.
	SegmentBytes int64
	// QueueDepth bounds the write-behind queue; a full queue drops the write
	// and counts store.put.dropped (default 256).
	QueueDepth int
	// Obs receives the store.* metrics. Nil means no-op.
	Obs obs.Recorder
	// Log receives recovery and corruption warnings. Nil disables logging.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxDiskBytes <= 0 {
		c.MaxDiskBytes = 256 << 20
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.SegmentBytes > c.MaxDiskBytes {
		c.SegmentBytes = c.MaxDiskBytes
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// recordLoc locates one live record: the segment it lives in and the frame
// offset/size within it.
type recordLoc struct {
	seg  uint64
	off  int64
	size int64
}

// segment is one on-disk segment file with its read/write handle.
type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64
}

// Store is the persistent cache tier. All methods are safe for concurrent
// use; appends are serialised on a single background writer.
type Store struct {
	cfg Config
	rec obs.Recorder
	log *slog.Logger

	mu    sync.Mutex
	index map[string]recordLoc
	segs  []*segment // ascending id; last is active
	total int64      // sum of segment sizes

	putCh chan putReq
	wg    sync.WaitGroup

	closeMu sync.RWMutex
	closed  bool

	// failAppend, when set (tests only), intercepts segment appends to
	// simulate disk faults (ENOSPC, I/O errors): the store must degrade to a
	// miss-only tier, never corrupt state or panic.
	failAppend func() error
}

type putReq struct {
	key   string
	blob  []byte
	flush chan struct{} // non-nil marks a flush barrier, key/blob unused
}

const segSuffix = ".seg"

// Open opens (or creates) the store in cfg.Dir and recovers its index by
// scanning every segment. Recovery is forgiving by design: torn tails are
// truncated, corrupt records skipped and counted; only genuine I/O and
// permission errors fail the open.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{
		cfg:   cfg,
		rec:   obs.OrNop(cfg.Obs),
		log:   cfg.Log,
		index: make(map[string]recordLoc),
		putCh: make(chan putReq, cfg.QueueDepth),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.compactLocked()
	s.publishGauges()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// recover scans the segment directory and rebuilds the index.
func (s *Store) recover() error {
	names, err := filepath.Glob(filepath.Join(s.cfg.Dir, "*"+segSuffix))
	if err != nil {
		return fmt.Errorf("store: list segments: %w", err)
	}
	ids := make([]uint64, 0, len(names))
	byID := make(map[uint64]string, len(names))
	for _, name := range names {
		var id uint64
		base := filepath.Base(name)
		if _, err := fmt.Sscanf(base, "%016x"+segSuffix, &id); err != nil {
			s.warn("ignoring foreign file in cache dir", "file", base)
			continue
		}
		ids = append(ids, id)
		byID[id] = name
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var recovered, corrupt, truncated int
	for _, id := range ids {
		path := byID[id]
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: read segment %s: %w", path, err)
		}
		res := scanSegment(data)
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: open segment %s: %w", path, err)
		}
		if res.torn {
			if err := f.Truncate(res.validLen); err != nil {
				f.Close()
				return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
			}
			truncated++
			s.warn("truncated torn segment tail",
				"segment", filepath.Base(path), "valid_bytes", res.validLen,
				"dropped_bytes", int64(len(data))-res.validLen)
		}
		for _, r := range res.records {
			// A later record of a key wins: Forget lets a Put supersede one.
			s.index[r.key] = recordLoc{seg: id, off: r.off, size: r.size}
		}
		recovered += len(res.records)
		if res.corrupt > 0 {
			corrupt += res.corrupt
			s.warn("skipped corrupt records during recovery",
				"segment", filepath.Base(path), "corrupt", res.corrupt)
		}
		s.segs = append(s.segs, &segment{id: id, path: path, f: f, size: res.validLen})
		s.total += res.validLen
	}
	if err := s.ensureActiveLocked(); err != nil {
		return err
	}
	s.rec.Add("store.recovered", float64(recovered))
	if corrupt > 0 {
		s.rec.Add("store.corrupt.total", float64(corrupt))
	}
	if truncated > 0 {
		s.rec.Add("store.truncated", float64(truncated))
	}
	return nil
}

// ensureActiveLocked guarantees a writable active segment: the newest one if
// it has room, a fresh one otherwise.
func (s *Store) ensureActiveLocked() error {
	if n := len(s.segs); n > 0 && s.segs[n-1].size < s.cfg.SegmentBytes {
		return nil
	}
	var next uint64 = 1
	if n := len(s.segs); n > 0 {
		next = s.segs[n-1].id + 1
	}
	path := filepath.Join(s.cfg.Dir, fmt.Sprintf("%016x%s", next, segSuffix))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	s.segs = append(s.segs, &segment{id: next, path: path, f: f})
	return nil
}

// Get returns the blob stored under key. The record's CRC is re-verified on
// every read: a record that fails it is dropped from the index, counted in
// store.corrupt and reported as a miss — corrupt bytes are never returned.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	loc, ok := s.index[key]
	var f *os.File
	if ok {
		for _, seg := range s.segs {
			if seg.id == loc.seg {
				f = seg.f
				break
			}
		}
	}
	s.mu.Unlock()
	if !ok || f == nil {
		s.rec.Add("store.miss", 1)
		return nil, false
	}
	buf := make([]byte, loc.size)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		if errors.Is(err, os.ErrClosed) {
			// Compaction closed the segment between lookup and read: the
			// entry was evicted, not corrupted.
			s.rec.Add("store.miss", 1)
			return nil, false
		}
		s.dropCorrupt(key, "read failed", err)
		return nil, false
	}
	gotKey, blob, _, err := decodeRecord(buf)
	if err != nil || gotKey != key {
		if err == nil {
			err = fmt.Errorf("store: record key mismatch")
		}
		s.dropCorrupt(key, "checksum verification failed", err)
		return nil, false
	}
	s.rec.Add("store.hit", 1)
	// blob aliases buf, which is private to this call — safe to return.
	return blob, true
}

// dropCorrupt removes a record that failed read-time verification.
func (s *Store) dropCorrupt(key, reason string, err error) {
	s.Forget(key)
	s.rec.Add("store.corrupt.total", 1)
	s.rec.Add("store.miss", 1)
	s.warn("dropped corrupt record", "reason", reason, "error", err)
}

// Forget drops key from the index, so the next Put of it appends a record
// that supersedes the one on disk (recovery indexes a later record of a key
// over an earlier one). The serving layer calls it for a record whose
// checksum holds but whose blob it cannot decode, such as one a newer build
// wrote; otherwise that record would turn every re-solve's Put into a
// duplicate and leave the key cold on every restart.
func (s *Store) Forget(key string) {
	s.mu.Lock()
	delete(s.index, key)
	s.publishGauges()
	s.mu.Unlock()
}

// Put schedules the blob for persistence under key. It never blocks: with
// the write-behind queue full the write is dropped and counted — the entry
// stays servable from the in-memory tier, the disk tier just stays cold for
// it. Put after Close is a silent no-op.
func (s *Store) Put(key string, blob []byte) {
	if key == "" || len(key) > maxKeyLen || int64(len(blob)) > maxBlobLen {
		s.rec.Add("store.put.dropped", 1)
		return
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return
	}
	select {
	case s.putCh <- putReq{key: key, blob: blob}:
	default:
		s.rec.Add("store.put.dropped", 1)
	}
}

// Flush blocks until every Put enqueued before it has been applied. Tests
// and the drain path use it; Close implies it.
func (s *Store) Flush() {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return
	}
	barrier := make(chan struct{})
	s.putCh <- putReq{flush: barrier}
	s.closeMu.RUnlock()
	<-barrier
}

// Close drains the write-behind queue, fsyncs the active segment and closes
// every handle. Idempotent.
func (s *Store) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	s.closeMu.Unlock()
	close(s.putCh)
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var retErr error
	for _, seg := range s.segs {
		if err := seg.f.Sync(); err != nil && retErr == nil {
			retErr = fmt.Errorf("store: sync %s: %w", seg.path, err)
		}
		if err := seg.f.Close(); err != nil && retErr == nil {
			retErr = fmt.Errorf("store: close %s: %w", seg.path, err)
		}
	}
	return retErr
}

// writer is the single append goroutine: it applies write-behind puts, rolls
// segments and compacts past the disk budget.
func (s *Store) writer() {
	defer s.wg.Done()
	for req := range s.putCh {
		if req.flush != nil {
			close(req.flush)
			continue
		}
		s.apply(req.key, req.blob)
	}
}

// apply appends one record, rolling and compacting as needed.
func (s *Store) apply(key string, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.index[key]; exists {
		// Keys are immutable (the equilibrium for a key is unique); the
		// record on disk is already the answer.
		s.rec.Add("store.put.duplicate", 1)
		return
	}
	active := s.segs[len(s.segs)-1]
	frame := appendRecord(make([]byte, 0, recordSize(key, blob)), key, blob)
	if s.failAppend != nil {
		if err := s.failAppend(); err != nil {
			s.rec.Add("store.write.errors", 1)
			s.warn("segment append failed", "error", err)
			return
		}
	}
	if _, err := active.f.WriteAt(frame, active.size); err != nil {
		// Disk full or I/O error: drop the record, keep the tier serving.
		// The partial frame (if any) is past the tracked size, so the next
		// successful append overwrites it and recovery truncates it.
		s.rec.Add("store.write.errors", 1)
		s.warn("segment append failed", "error", err)
		return
	}
	off := active.size
	active.size += int64(len(frame))
	s.total += int64(len(frame))
	s.index[key] = recordLoc{seg: active.id, off: off, size: int64(len(frame))}
	s.rec.Add("store.put", 1)

	if active.size >= s.cfg.SegmentBytes {
		s.rollLocked()
	}
	s.publishGauges()
}

// rollLocked seals the active segment (fsync) and opens the next one, then
// enforces the disk budget.
func (s *Store) rollLocked() {
	active := s.segs[len(s.segs)-1]
	if err := active.f.Sync(); err != nil {
		s.rec.Add("store.write.errors", 1)
		s.warn("segment sync on roll failed", "segment", filepath.Base(active.path), "error", err)
	}
	if err := s.ensureActiveLocked(); err != nil {
		s.rec.Add("store.write.errors", 1)
		s.warn("segment roll failed", "error", err)
		return
	}
	s.rec.Add("store.rolls", 1)
	s.compactLocked()
}

// compactLocked enforces MaxDiskBytes by deleting the oldest sealed segments
// and evicting their keys. The active segment is never deleted.
func (s *Store) compactLocked() {
	for s.total > s.cfg.MaxDiskBytes && len(s.segs) > 1 {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		var evicted int
		for key, loc := range s.index {
			if loc.seg == victim.id {
				delete(s.index, key)
				evicted++
			}
		}
		victim.f.Close()
		if err := os.Remove(victim.path); err != nil {
			s.warn("compaction could not remove segment", "segment", filepath.Base(victim.path), "error", err)
		}
		s.total -= victim.size
		s.rec.Add("store.compactions", 1)
		s.rec.Add("store.evicted", float64(evicted))
		s.warn("compacted oldest segment", "segment", filepath.Base(victim.path),
			"evicted_records", evicted, "freed_bytes", victim.size)
	}
}

// publishGauges refreshes the size gauges (caller holds mu).
func (s *Store) publishGauges() {
	s.rec.Gauge("store.records", float64(len(s.index)))
	s.rec.Gauge("store.bytes", float64(s.total))
	s.rec.Gauge("store.segments", float64(len(s.segs)))
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// DiskBytes returns the total bytes across segments.
func (s *Store) DiskBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

func (s *Store) warn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn("store: "+msg, args...)
	}
}
