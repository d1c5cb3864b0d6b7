package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Equilibrium solves are the expensive step of Algorithm 1 (one per content
// per epoch), so production deployments cache them: an epoch whose workload
// matches a previous one reuses the stored equilibrium, and slowly-varying
// workloads warm-start from it (Config.WarmStart). This file owns the archive
// that simulation checkpoints, the MFG-CP policy state, `solve -save` files
// and the store records of older builds carry as opaque bytes; no other file
// knows its layout.
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
// There is one encoder (MarshalEquilibrium, into one exact-size buffer) and
// one decoder (UnmarshalEquilibrium, straight from the bytes); WriteTo and
// ReadEquilibrium wrap them. The decoder checks the prefix and header against
// the archive's length before it allocates for the bulk. On a little-endian
// host a float64's memory is its archive encoding, so the bulk moves by one
// copy through a byte view of that memory (encodeFloats and decodeFloats);
// other hosts convert each element.
//
// Format v1 was gob of legacyArchive. No build writes it any more, but the
// decoder still reads it: store records, checkpoints and policy state
// persisted by older builds remain valid input. The magic's first byte is
// one no gob stream starts with, so the two formats cannot be confused, and
// an older build rejects a v2 archive at its first byte.
const (
	archiveMagic   = "\x89MFGEQ"
	archiveVersion = 2
	archivePrefix  = len(archiveMagic) + 1 + 4

	legacyVersion = 1
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

// MarshalEquilibrium returns eq's archive for storage and the wire. It drops
// the runtime-only fields of the config first. The telemetry recorder (Obs)
// is runtime wiring, not equilibrium state, and gob cannot encode arbitrary
// Recorder implementations. The warm-start ancestry goes too: every solve
// records the equilibrium it was seeded from in Config.WarmStart, so
// epoch-over-epoch warm starting grows an unbounded chain that would bloat
// snapshots without influencing any later computation (warm starts only read
// the strategy and density paths of the equilibrium itself, never its
// ancestor's).
func MarshalEquilibrium(eq *Equilibrium) ([]byte, error) {
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
	var header bytes.Buffer
	if err := gob.NewEncoder(&header).Encode(archiveHeader{Levels: levels, Width: width, Eq: &head}); err != nil {
		return nil, fmt.Errorf("core: encode equilibrium: %w", err)
	}
	if uint64(header.Len()) > math.MaxUint32 {
		return nil, fmt.Errorf("core: equilibrium header of %d bytes exceeds the format's 4 GiB limit", header.Len())
	}
	out := make([]byte, archivePrefix+header.Len()+24*levels*width)
	copy(out, archiveMagic)
	out[len(archiveMagic)] = archiveVersion
	binary.LittleEndian.PutUint32(out[len(archiveMagic)+1:], uint32(header.Len()))
	n := archivePrefix + copy(out[archivePrefix:], header.Bytes())
	for _, path := range paths {
		for _, level := range path {
			encodeFloats(out[n:n+8*width], level)
			n += 8 * width
		}
	}
	return out, nil
}

// WriteTo writes eq's archive to w in one write and returns the number of
// bytes written.
func (eq *Equilibrium) WriteTo(w io.Writer) (int64, error) {
	blob, err := MarshalEquilibrium(eq)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(blob)
	if err != nil {
		return int64(n), fmt.Errorf("core: write equilibrium: %w", err)
	}
	return int64(n), nil
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
// WriteTo, in either format. A v2 archive's version, header length and path
// shape must agree with len(data) before the decoder allocates for the bulk,
// which it then copies straight into the equilibrium's paths. It never
// panics on hostile input.
func UnmarshalEquilibrium(data []byte) (*Equilibrium, error) {
	if !bytes.HasPrefix(data, []byte(archiveMagic)) {
		return decodeLegacy(data)
	}
	if len(data) < archivePrefix {
		return nil, fmt.Errorf("core: equilibrium archive truncated at %d bytes", len(data))
	}
	if v := data[len(archiveMagic)]; v != archiveVersion {
		return nil, fmt.Errorf("core: equilibrium archive version %d, want %d", v, archiveVersion)
	}
	headerLen := binary.LittleEndian.Uint32(data[len(archiveMagic)+1:])
	if uint64(headerLen) > uint64(len(data)-archivePrefix) {
		return nil, fmt.Errorf("core: equilibrium header of %d bytes overruns the %d-byte archive", headerLen, len(data))
	}
	header, bulk := data[archivePrefix:archivePrefix+int(headerLen)], data[archivePrefix+int(headerLen):]
	var h archiveHeader
	// As in decodeLegacy, the bytes.Reader keeps gob to its own value, and
	// the header length must count exactly that value.
	r := bytes.NewReader(header)
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("core: decode equilibrium header: %w", err)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("core: %d bytes trail the equilibrium header", r.Len())
	}
	if err := checkOutputs(h.Eq); err != nil {
		return nil, err
	}
	if err := checkBulk(h.Levels, h.Width, len(bulk)); err != nil {
		return nil, err
	}
	eq := h.Eq
	eq.HJB.V, eq.HJB.X, eq.FPK.Lambda = nil, nil, nil
	if h.Levels > 0 {
		vals := make([]float64, 3*h.Levels*h.Width)
		decodeFloats(vals, bulk)
		eq.HJB.V, eq.HJB.X, eq.FPK.Lambda = splitPaths(vals, h.Levels, h.Width)
	}
	return eq, nil
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

// encodeFloats stores vals in dst as little-endian float64s: one copy of
// vals' memory on a little-endian host, encodeFloatsLoop on others.
func encodeFloats(dst []byte, vals []float64) {
	if littleEndian {
		copy(dst, floatBytes(vals))
		return
	}
	encodeFloatsLoop(dst, vals)
}

// decodeFloats fills vals from the little-endian float64s in src: one copy
// into vals' memory on a little-endian host, decodeFloatsLoop on others.
func decodeFloats(vals []float64, src []byte) {
	if littleEndian {
		copy(floatBytes(vals), src)
		return
	}
	decodeFloatsLoop(vals, src)
}

// floatBytes is the byte view of vals' memory, the module's one use of
// unsafe.
func floatBytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// encodeFloatsLoop stores vals in dst as little-endian float64s, one element
// at a time: the portable encoding, whatever the host's byte order.
func encodeFloatsLoop(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// decodeFloatsLoop fills vals from the little-endian float64s in src, one
// element at a time: the portable decoding, whatever the host's byte order.
func decodeFloatsLoop(vals []float64, src []byte) {
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// decodeLegacy reads a v1 archive: one gob value and nothing after it. It
// accepts exactly the equilibria the v2 encoder can write back, so every
// decoded archive re-marshals.
func decodeLegacy(data []byte) (*Equilibrium, error) {
	var arch legacyArchive
	// A bytes.Reader is an io.ByteReader, so gob reads no further than its
	// own messages and whatever it leaves unread trails the archive.
	r := bytes.NewReader(data)
	if err := gob.NewDecoder(r).Decode(&arch); err != nil {
		return nil, fmt.Errorf("core: decode equilibrium: %w", err)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("core: %d bytes trail the equilibrium archive", r.Len())
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
func checkBulk(levels, width, size int) error {
	if levels < 0 || width < 0 || (levels == 0) != (width == 0) {
		return fmt.Errorf("core: equilibrium archive declares a %d×%d path shape", levels, width)
	}
	cells := size / 24
	if size%24 != 0 || (width == 0 && cells != 0) || (width > 0 && (cells%width != 0 || cells/width != levels)) {
		return fmt.Errorf("core: equilibrium bulk of %d bytes does not hold 3 paths of %d×%d float64s", size, levels, width)
	}
	return nil
}
