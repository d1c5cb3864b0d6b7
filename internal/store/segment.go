package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The on-disk unit of the persistent cache tier is an append-only segment
// file holding a sequence of framed records. Each record carries its own
// integrity envelope — magic, format version, explicit lengths and a CRC32
// over the payload — mirroring the checkpoint discipline of internal/sim: no
// byte of a record is trusted before the frame around it checks out.
//
// Record layout (little endian, 17-byte header):
//
//	magic   uint32  recordMagic
//	version uint8   recordVersion
//	keyLen  uint32  length of the cache key
//	blobLen uint32  length of the value blob
//	crc     uint32  CRC32 (IEEE) over key ‖ blob
//	key     keyLen bytes
//	blob    blobLen bytes
//
// Two distinct failure classes fall out of this frame, and recovery treats
// them differently:
//
//   - a torn tail (short header, bad magic/version, implausible lengths, or a
//     body that runs past the end of the file) marks the point where a crash
//     interrupted an append: everything before it is intact, nothing after it
//     is trustworthy, so the scan truncates the segment there;
//   - a corrupt record (frame intact, CRC mismatch — bit rot or seeded fault
//     injection) is skipped individually: the lengths still frame the record,
//     so the scan resynchronises at the next record and keeps the rest of the
//     segment.
const (
	recordMagic   uint32 = 0x4d464753 // "MFGS"
	recordVersion byte   = 1
	headerSize           = 4 + 1 + 4 + 4 + 4

	// maxKeyLen / maxBlobLen bound the lengths a header may claim before the
	// scan declares the frame implausible. Cache keys are ~1 KiB canonical
	// strings and equilibrium blobs a few MiB; anything beyond these
	// bounds is a torn or foreign frame, not data.
	maxKeyLen  = 1 << 16 // 64 KiB
	maxBlobLen = 1 << 26 // 64 MiB
)

var (
	// errTornRecord marks the unrecoverable tail of a segment: the bytes at
	// this offset are not a complete, plausible record frame. The scan
	// truncates here.
	errTornRecord = errors.New("store: torn record")
	// errCorruptRecord marks a fully framed record whose payload fails its
	// CRC. The scan skips exactly this record and continues.
	errCorruptRecord = errors.New("store: corrupt record (checksum mismatch)")
)

// appendRecord encodes one record frame onto dst and returns the extended
// slice.
func appendRecord(dst []byte, key string, blob []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], recordMagic)
	hdr[4] = recordVersion
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(blob)))
	crc := crc32.ChecksumIEEE([]byte(key))
	crc = crc32.Update(crc, crc32.IEEETable, blob)
	binary.LittleEndian.PutUint32(hdr[13:17], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, key...)
	dst = append(dst, blob...)
	return dst
}

// recordSize returns the framed size of one record.
func recordSize(key string, blob []byte) int64 {
	return int64(headerSize + len(key) + len(blob))
}

// decodeRecord decodes the record frame at the start of b. It returns the
// key, the blob (aliasing b, not copied) and the number of bytes the record
// occupies. Errors classify the input: io.EOF for an empty buffer (clean end
// of segment), errTornRecord for an incomplete or implausible frame (n is
// meaningless), and errCorruptRecord for a complete frame whose CRC fails (n
// is valid, so the caller can skip the record). It never panics on arbitrary
// input — FuzzSegmentDecode pins that contract.
func decodeRecord(b []byte) (key string, blob []byte, n int64, err error) {
	if len(b) == 0 {
		return "", nil, 0, io.EOF
	}
	if len(b) < headerSize {
		return "", nil, 0, fmt.Errorf("%w: %d-byte tail is shorter than a header", errTornRecord, len(b))
	}
	if magic := binary.LittleEndian.Uint32(b[0:4]); magic != recordMagic {
		return "", nil, 0, fmt.Errorf("%w: bad magic %08x", errTornRecord, magic)
	}
	if b[4] != recordVersion {
		return "", nil, 0, fmt.Errorf("%w: record version %d, want %d", errTornRecord, b[4], recordVersion)
	}
	keyLen := binary.LittleEndian.Uint32(b[5:9])
	blobLen := binary.LittleEndian.Uint32(b[9:13])
	if keyLen > maxKeyLen || blobLen > maxBlobLen {
		return "", nil, 0, fmt.Errorf("%w: implausible lengths key=%d blob=%d", errTornRecord, keyLen, blobLen)
	}
	n = int64(headerSize) + int64(keyLen) + int64(blobLen)
	if int64(len(b)) < n {
		return "", nil, 0, fmt.Errorf("%w: record of %d bytes runs past the %d-byte tail", errTornRecord, n, len(b))
	}
	keyBytes := b[headerSize : headerSize+keyLen]
	blob = b[headerSize+keyLen : n]
	crc := crc32.ChecksumIEEE(keyBytes)
	crc = crc32.Update(crc, crc32.IEEETable, blob)
	if want := binary.LittleEndian.Uint32(b[13:17]); crc != want {
		return "", nil, n, fmt.Errorf("%w: %08x != %08x", errCorruptRecord, crc, want)
	}
	return string(keyBytes), blob, n, nil
}

// scanResult is the outcome of scanning one segment's contents.
type scanResult struct {
	// records are the CRC-valid records in file order.
	records []scannedRecord
	// validLen is the length of the trusted prefix: the offset just past the
	// last framed record (valid or corrupt-but-framed). A torn tail starts
	// here and should be truncated away.
	validLen int64
	// corrupt counts CRC-failed records that were skipped.
	corrupt int
	// torn reports whether a torn tail was found past validLen.
	torn bool
}

type scannedRecord struct {
	key     string
	off     int64 // offset of the record frame within the segment
	size    int64 // framed size
	blobLen int64
}

// scanSegment walks the framed records in data, skipping corrupt records and
// stopping at a torn tail.
func scanSegment(data []byte) scanResult {
	var res scanResult
	var off int64
	for {
		key, blob, n, err := decodeRecord(data[off:])
		switch {
		case err == nil:
			res.records = append(res.records, scannedRecord{
				key: key, off: off, size: n, blobLen: int64(len(blob)),
			})
			off += n
		case errors.Is(err, errCorruptRecord):
			res.corrupt++
			off += n
		case errors.Is(err, io.EOF):
			res.validLen = off
			return res
		default: // torn tail
			res.validLen = off
			res.torn = true
			return res
		}
	}
}
