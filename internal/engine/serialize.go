package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"
)

// Equilibrium solves are the expensive step of Algorithm 1 (one per content
// per epoch), so production deployments cache them: an epoch whose workload
// matches a previous one reuses the stored equilibrium, and slowly-varying
// workloads warm-start from it (Config.WarmStart). This file owns the archive
// that store records, peer-fill bodies, simulation checkpoints and the MFG-CP
// policy state carry as opaque bytes; no other file knows its layout.
//
// Archive format v2 (integers little endian):
//
//	magic      6 bytes  archiveMagic
//	version    uint8    archiveVersion
//	headerLen  uint32   length of the header
//	header     gob of archiveHeader: the equilibrium with HJB.V, HJB.X and
//	           FPK.Lambda cleared, and the Levels×Width shape of those paths
//	bulk       3·Levels·Width raw float64s: HJB.V, then HJB.X, then
//	           FPK.Lambda, one time level after another
//
// The three paths are over 99% of an archive (3 × 121 × 793 values on the
// default grid). Raw float64s encode and decode several times faster than
// gob's per-element varints, at a size within about 10% of gob's: gob spends
// a count byte on every value but packs zeros and short mantissas, while a
// raw float64 always takes 8 bytes. Every other field stays in the gob
// header, so new Config, Params and Snapshot fields travel without codec
// changes.
//
// The archive streams both ways. An Archive encodes the prefix and header
// first, so its size is known before the first byte is written, and then
// writes the bulk from the paths' own memory. DecodeEquilibrium checks the
// prefix and header against the declared size before it allocates for the
// bulk, and then reads the bulk straight into the paths' one backing array.
// On a little-endian host a float64's memory is its archive encoding, so the
// bulk moves as raw bytes (writeFloats and readFloats); other hosts convert
// each element.
//
// Format v1 was gob of legacyArchive. No build writes it any more, but the
// decoders still read it: store records, checkpoints and policy state
// persisted by older builds remain valid input. The magic's first byte is
// one no gob stream starts with, so the two formats cannot be confused, and
// an older build rejects a v2 archive at its first byte.
const (
	archiveMagic   = "\x89MFGEQ"
	archiveVersion = 2
	archivePrefix  = len(archiveMagic) + 1 + 4

	legacyVersion = 1

	// stageBytes sizes the buffer Archive.WriteTo stages the bulk through,
	// so an unbuffered writer (a socket, a file) sees a few large writes
	// instead of one per time level.
	stageBytes = 256 << 10
)

// archiveHeader is the gob header of a v2 archive.
type archiveHeader struct {
	Levels, Width int
	Eq            *Equilibrium
}

// legacyArchive is the whole v1 archive.
type legacyArchive struct {
	Version int
	Eq      *Equilibrium
}

// Archive is one equilibrium encoded up to its bulk: the prefix and gob
// header are bytes, the three paths are still the equilibrium's own. The
// equilibrium's paths must not change until the archive is written.
type Archive struct {
	head  []byte // prefix and gob header
	paths [3][][]float64
	size  int64
}

// NewArchive encodes eq's prefix and header. It drops the runtime-only
// fields of the config first. The telemetry recorder (Obs) is runtime
// wiring, not equilibrium state, and gob cannot encode arbitrary Recorder
// implementations. The warm-start ancestry goes too: every solve records the
// equilibrium it was seeded from in Config.WarmStart, so epoch-over-epoch
// warm starting grows an unbounded chain that would bloat snapshots without
// influencing any later computation (warm starts only read the strategy and
// density paths of the equilibrium itself, never its ancestor's).
func NewArchive(eq *Equilibrium) (*Archive, error) {
	if eq == nil {
		return nil, fmt.Errorf("core: marshal nil equilibrium")
	}
	if err := checkOutputs(eq); err != nil {
		return nil, err
	}
	paths := [3][][]float64{eq.HJB.V, eq.HJB.X, eq.FPK.Lambda}
	levels, width, err := pathShape(paths)
	if err != nil {
		return nil, err
	}
	hjb, fpk := *eq.HJB, *eq.FPK
	hjb.V, hjb.X, fpk.Lambda = nil, nil, nil
	head := *eq
	head.Config.Obs, head.Config.WarmStart = nil, nil
	head.HJB, head.FPK = &hjb, &fpk
	var buf bytes.Buffer
	buf.Write(make([]byte, archivePrefix))
	if err := gob.NewEncoder(&buf).Encode(archiveHeader{Levels: levels, Width: width, Eq: &head}); err != nil {
		return nil, fmt.Errorf("core: encode equilibrium: %w", err)
	}
	headerLen := buf.Len() - archivePrefix
	if uint64(headerLen) > math.MaxUint32 {
		return nil, fmt.Errorf("core: equilibrium header of %d bytes exceeds the format's 4 GiB limit", headerLen)
	}
	out := buf.Bytes()
	copy(out, archiveMagic)
	out[len(archiveMagic)] = archiveVersion
	binary.LittleEndian.PutUint32(out[len(archiveMagic)+1:], uint32(headerLen))
	return &Archive{head: out, paths: paths, size: int64(len(out)) + 24*int64(levels)*int64(width)}, nil
}

// Size is the archive's length in bytes.
func (a *Archive) Size() int64 { return a.size }

// stages holds the buffers Archive.WriteTo stages the bulk through.
var stages = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, stageBytes) }}

// WriteTo writes the archive to w through a staging buffer of stageBytes
// and returns the number of bytes written.
func (a *Archive) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := stages.Get().(*bufio.Writer)
	bw.Reset(cw)
	err := a.write(bw)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil)
	stages.Put(bw)
	if err != nil {
		return cw.n, fmt.Errorf("core: write equilibrium: %w", err)
	}
	return cw.n, nil
}

// write writes the archive to w as it is: the prefix and header, then one
// write per time level.
func (a *Archive) write(w io.Writer) error {
	if _, err := w.Write(a.head); err != nil {
		return err
	}
	for _, path := range a.paths {
		for _, level := range path {
			if err := writeFloats(w, level); err != nil {
				return err
			}
		}
	}
	return nil
}

// countingWriter counts the bytes its writer accepts.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteTo writes eq's archive to w and returns the number of bytes written.
func (eq *Equilibrium) WriteTo(w io.Writer) (int64, error) {
	a, err := NewArchive(eq)
	if err != nil {
		return 0, err
	}
	return a.WriteTo(w)
}

// MarshalEquilibrium returns eq's archive for storage and the wire.
func MarshalEquilibrium(eq *Equilibrium) ([]byte, error) {
	a, err := NewArchive(eq)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, a.size))
	_ = a.write(buf) // a bytes.Buffer write only fails by panicking
	return buf.Bytes(), nil
}

// ReadEquilibrium reads r to the end and decodes the archive it holds.
func ReadEquilibrium(r io.Reader) (*Equilibrium, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read equilibrium: %w", err)
	}
	return UnmarshalEquilibrium(data)
}

// UnmarshalEquilibrium decodes an archive written by MarshalEquilibrium or
// WriteTo, in either format. It never panics on hostile input.
func UnmarshalEquilibrium(data []byte) (*Equilibrium, error) {
	return DecodeEquilibrium(bytes.NewReader(data), int64(len(data)))
}

// DecodeEquilibrium decodes the size-byte archive r delivers, in either
// format, and refuses a reader that ends before size bytes or holds more. A
// v2 archive's version, header length and path shape must agree with size
// before the decoder allocates for the bulk, which it then reads straight
// into the equilibrium's paths; the caller bounds size. It never panics on
// hostile input.
func DecodeEquilibrium(r io.Reader, size int64) (*Equilibrium, error) {
	if uint64(size) > math.MaxInt {
		return nil, fmt.Errorf("core: equilibrium archive size %d is out of range", size)
	}
	var prefix [archivePrefix]byte
	p := prefix[:min(size, int64(archivePrefix))]
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, readError(err)
	}
	if !bytes.HasPrefix(p, []byte(archiveMagic)) {
		rest, err := io.ReadAll(io.LimitReader(r, size-int64(len(p))))
		if err == nil && int64(len(p)+len(rest)) < size {
			err = io.EOF
		}
		if err != nil {
			return nil, readError(err)
		}
		if err := checkEnd(r, size); err != nil {
			return nil, err
		}
		return decodeLegacy(append(p, rest...))
	}
	if len(p) < archivePrefix {
		return nil, fmt.Errorf("core: equilibrium archive truncated at %d bytes", size)
	}
	if v := p[len(archiveMagic)]; v != archiveVersion {
		return nil, fmt.Errorf("core: equilibrium archive version %d, want %d", v, archiveVersion)
	}
	headerLen := int64(binary.LittleEndian.Uint32(p[len(archiveMagic)+1:]))
	if headerLen > size-int64(archivePrefix) {
		return nil, fmt.Errorf("core: equilibrium header of %d bytes overruns the %d-byte archive", headerLen, size)
	}
	header := io.LimitReader(r, headerLen)
	var h archiveHeader
	if err := gob.NewDecoder(header).Decode(&h); err != nil {
		return nil, fmt.Errorf("core: decode equilibrium header: %w", err)
	}
	if _, err := io.Copy(io.Discard, header); err != nil {
		return nil, readError(err)
	}
	if err := checkOutputs(h.Eq); err != nil {
		return nil, err
	}
	if err := checkBulk(h.Levels, h.Width, size-int64(archivePrefix)-headerLen); err != nil {
		return nil, err
	}
	eq := h.Eq
	eq.HJB.V, eq.HJB.X, eq.FPK.Lambda = nil, nil, nil
	if h.Levels > 0 {
		vals := make([]float64, 3*h.Levels*h.Width)
		if err := readFloats(r, vals); err != nil {
			return nil, readError(err)
		}
		eq.HJB.V, eq.HJB.X, eq.FPK.Lambda = splitPaths(vals, h.Levels, h.Width)
	}
	if err := checkEnd(r, size); err != nil {
		return nil, err
	}
	return eq, nil
}

// checkEnd refuses a reader that holds more than the archive's declared
// size bytes.
func checkEnd(r io.Reader, size int64) error {
	var extra [1]byte
	n, err := io.ReadFull(r, extra[:])
	if n > 0 {
		return fmt.Errorf("core: equilibrium archive is longer than its declared %d bytes", size)
	}
	if err != io.EOF {
		return readError(err)
	}
	return nil
}

// readError reports a reader that failed, or that ended before the archive's
// declared size.
func readError(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("core: read equilibrium: %w", err)
}

// splitPaths cuts vals, the 3·levels·width values of a bulk, into the three
// paths. They share vals as their one backing array, and every level is
// capacity-capped, so an append reallocates instead of spilling into the
// next level or path.
func splitPaths(vals []float64, levels, width int) (v, x, lambda [][]float64) {
	all := make([][]float64, 3*levels)
	for n := range all {
		all[n] = vals[n*width : (n+1)*width : (n+1)*width]
	}
	return all[:levels:levels], all[levels : 2*levels : 2*levels], all[2*levels:]
}

// littleEndian reports whether this host lays out a float64 in memory as the
// archive does, least significant byte first.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// writeFloats writes vals to w as little-endian float64s. On a little-endian
// host that is one write of vals' own memory; other hosts encode pieces of
// vals with encodeFloatsLoop.
func writeFloats(w io.Writer, vals []float64) error {
	if littleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals)))
		return err
	}
	var buf [512]byte
	for len(vals) > 0 {
		n := min(len(vals), len(buf)/8)
		encodeFloatsLoop(buf[:8*n], vals[:n])
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// readFloats fills vals with little-endian float64s read from r, straight
// into vals' memory. Other hosts than little-endian ones then decode each
// element in place with decodeFloatsLoop.
func readFloats(r io.Reader, vals []float64) error {
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
	if _, err := io.ReadFull(r, raw); err != nil {
		return err
	}
	if !littleEndian {
		decodeFloatsLoop(vals, raw)
	}
	return nil
}

// encodeFloatsLoop stores vals in dst as little-endian float64s, one element
// at a time: the portable encoding, whatever the host's byte order.
func encodeFloatsLoop(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// decodeFloatsLoop fills vals from the little-endian float64s in src, one
// element at a time. src may be vals' own memory: each element is read
// before it is written.
func decodeFloatsLoop(vals []float64, src []byte) {
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// decodeLegacy reads a v1 archive. It accepts exactly the equilibria the v2
// encoder can write back, so every decoded archive re-marshals.
func decodeLegacy(data []byte) (*Equilibrium, error) {
	var arch legacyArchive
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&arch); err != nil {
		return nil, fmt.Errorf("core: decode equilibrium: %w", err)
	}
	if arch.Version != legacyVersion {
		return nil, fmt.Errorf("core: equilibrium archive version %d, want %d", arch.Version, legacyVersion)
	}
	if err := checkOutputs(arch.Eq); err != nil {
		return nil, err
	}
	if _, _, err := pathShape([3][][]float64{arch.Eq.HJB.V, arch.Eq.HJB.X, arch.Eq.FPK.Lambda}); err != nil {
		return nil, err
	}
	return arch.Eq, nil
}

// checkOutputs rejects an equilibrium without the solver outputs every
// archive carries.
func checkOutputs(eq *Equilibrium) error {
	if eq == nil {
		return errors.New("core: equilibrium archive is empty")
	}
	if eq.HJB == nil || eq.FPK == nil {
		return errors.New("core: equilibrium is missing solver outputs")
	}
	return nil
}

// pathShape returns the level count and width shared by the three bulk
// paths, or an error when they are ragged: paths of different lengths, or
// levels of different widths. Levels must not be empty, so the level count of
// an archive is bounded by its bulk size.
func pathShape(paths [3][][]float64) (levels, width int, err error) {
	levels = len(paths[0])
	if levels > 0 {
		width = len(paths[0][0])
		if width == 0 {
			return 0, 0, errors.New("core: equilibrium path levels are empty")
		}
	}
	for _, path := range paths {
		if len(path) != levels {
			return 0, 0, fmt.Errorf("core: equilibrium paths are ragged: %d and %d time levels", levels, len(path))
		}
		for _, level := range path {
			if len(level) != width {
				return 0, 0, fmt.Errorf("core: equilibrium paths are ragged: levels of %d and %d nodes", width, len(level))
			}
		}
	}
	return levels, width, nil
}

// checkBulk verifies that a bulk section of size bytes holds exactly
// 3·levels·width float64s. It divides instead of multiplying, so a hostile
// header cannot overflow the check or size an allocation beyond the data.
func checkBulk(levels, width int, size int64) error {
	if levels < 0 || width < 0 || (levels == 0) != (width == 0) {
		return fmt.Errorf("core: equilibrium archive declares a %d×%d path shape", levels, width)
	}
	cells := size / 24
	if size%24 != 0 || (width == 0 && cells != 0) || (width > 0 && (cells%int64(width) != 0 || cells/int64(width) != int64(levels))) {
		return fmt.Errorf("core: equilibrium bulk of %d bytes does not hold 3 paths of %d×%d float64s", size, levels, width)
	}
	return nil
}
