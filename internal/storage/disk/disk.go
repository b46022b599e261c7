// Package disk implements the durable storage medium: CRC-framed,
// torn-tail-recoverable files for every storage role.
//
//   - RecordLog — CRC-framed records in rotating segment files under a
//     manifest (the torn-tail recovery idiom the operation log shipped
//     with, plus atomic prefix compaction via manifest flips).
//   - Checkpointer — atomically-published checkpoint files (temp + rename),
//     newest-intact-wins at recovery.
//   - BlobStore — a segment-file staging store: blobs append to rotating
//     segment files instead of one file per payload, so staging a payload
//     costs one write+fsync, not a file create + fsync + directory fsync.
//   - EntityKV — an append-only data file with an in-memory key→location
//     index and mmap-backed reads: entity payloads live in the page cache,
//     not the Go heap, so the entity index can exceed RAM.
//
// Crash consistency: every file is a sequence of CRC-framed records
// (triple.AppendRecord layout). Recovery replays a file up to its first torn
// or corrupt record — a record cut short or failing its CRC, what a crash
// mid-append leaves at the tail — and truncates there (the segment blob
// store only in its active segment). A record that passes its CRC but does
// not decode is acknowledged data, not a tear: opening fails and the files
// stay as they are — the operation log's recovery contract, shared by every
// durable role. The entity KV additionally
// leans on the platform's replay semantics: its content derives from the
// log, and re-applied upserts are idempotent, so a tail lost between fsyncs
// heals on the next catch-up.
package disk

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"saga/internal/triple"
)

// Keyed-record payload layout, shared by the entity KV and the segment blob
// store: [op byte][uvarint keyLen][key][value...], framed by the CRC record
// codec (triple.BeginRecord/EndRecord). The value's offset within the payload
// is recorded at scan time so reads go straight to the value bytes.
const (
	opPut byte = 1
	opDel byte = 2
)

// appendKeyedRecord appends one framed keyed record to dst, building header,
// keyed prefix and value in place, and returns the value's offset from the
// start of the frame.
func appendKeyedRecord(dst []byte, op byte, key string, value []byte) (out []byte, valOff int) {
	dst, mark := triple.BeginRecord(dst)
	dst = append(dst, op)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	valOff = len(dst) - mark
	return triple.EndRecord(append(dst, value...), mark), valOff
}

// maxScratch bounds the framing buffer a store keeps between appends: one
// outsized record (a compacted payload, say) must not pin its size forever.
const maxScratch = 1 << 20

// recycle returns buf emptied for the next append under the same lock, or
// nil when it has grown past maxScratch.
func recycle(buf []byte) []byte {
	if cap(buf) > maxScratch {
		return nil
	}
	return buf[:0]
}

// decodeKeyed parses a keyed-record payload, returning the op, the key, and
// the value's offset within the payload. The key length is bounded by the
// bytes left before it becomes an int (a length of 2^63 or more would wrap
// negative), and only its minimal varint is accepted, so an accepted payload
// is exactly what appendKeyedRecord writes for it.
func decodeKeyed(payload []byte) (op byte, key string, valOff int, err error) {
	if len(payload) < 2 {
		return 0, "", 0, fmt.Errorf("disk: keyed record too short (%d bytes)", len(payload))
	}
	op = payload[0]
	klen, n := binary.Uvarint(payload[1:])
	if n <= 0 || klen > uint64(len(payload)-1-n) || n != (bits.Len64(klen|1)+6)/7 {
		return 0, "", 0, fmt.Errorf("disk: keyed record has corrupt key length")
	}
	valOff = 1 + n + int(klen)
	return op, string(payload[1+n : valOff]), valOff, nil
}
