// Package oplog implements the durable shared operation log that coordinates
// continuous ingest across the Graph Engine's storage engines (§3.1). The KG
// construction pipeline is the sole producer: it appends ingest operations
// to the log, one per publish group, each with its entity payload in the
// same record. Orchestration agents replay operations in order, so all
// stores eventually derive their views of the KG from the same base data in
// the same order.
//
// LSNs are monotonically increasing. A checkpoint compacts the whole log to
// one op at its head LSN W, the base: an ordinary op whose payload is every
// entity live at W and whose Links are the whole link table there, so
// replaying it from genesis reaches the state the ops it replaced reached.
// The log's first op therefore stands for every op at or below its LSN, and
// LSNs below it are gone. Every consumer indexes by LSN value (binary
// search), never by slice position.
//
// The paper's log is a distributed service; this implementation keeps the
// decoded operations in memory and delegates record durability to a
// storage.RecordLog, which preserves the properties the platform relies on:
// durability, total order, replay from an arbitrary LSN, and atomic
// compaction. An op's record is a format version byte, the uvarint length of
// its JSON header, the header, then its entity frames. A durable log holds
// no payload bytes in memory: Payload reads them back from the record.
package oplog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"saga/internal/storage"
	"saga/internal/triple"
)

// OpKind enumerates ingest operation types. No agent and no compaction
// switches on it: every op applies its payload entities, then its Deletes,
// then its link deltas.
type OpKind string

// OpUpsert publishes a group's changes; it is the only kind.
const OpUpsert OpKind = "upsert"

// Op is one logged ingest operation's header: the affected entity IDs, which
// incremental view maintenance consumes directly, and the link deltas. The
// entity payload follows the header in the op's record (Log.Payload).
type Op struct {
	// LSN is the log sequence number, assigned by Append. Monotonic; the
	// log's first op may be a base standing for every LSN below it (see the
	// package comment).
	LSN uint64 `json:"lsn"`
	// Kind is the operation type.
	Kind OpKind `json:"kind"`
	// Source names the data source the operation originated from. Nothing
	// reads it; the platform's group ops leave it empty.
	Source string `json:"source,omitempty"`
	// StagingKey named a payload in a staging store. Nothing sets or reads
	// it; the payload rides in the op's record.
	StagingKey string `json:"staging_key,omitempty"`
	// EntityIDs lists the payload's entities, in frame order.
	EntityIDs []triple.EntityID `json:"entity_ids,omitempty"`
	// Deletes lists the entities the operation removes from every store,
	// applied after the payload. The platform's ops never list an entity in
	// both.
	Deletes []triple.EntityID `json:"deletes,omitempty"`
	// Links records KG link-table deltas (source entity ID → canonical KG
	// entity ID) settled by the commits this op publishes. The link table is
	// construction metadata that cannot be derived from entity payloads, so
	// it rides the log: replay applies Links after the payload, and a base
	// op carries the whole table.
	Links map[triple.EntityID]triple.EntityID `json:"links,omitempty"`
	// Unlinks records link-table removals (deleted source entity IDs).
	Unlinks []triple.EntityID `json:"unlinks,omitempty"`
}

// recordVersion is the first byte of every op record. A record written
// before payloads rode in the log is bare JSON, so it starts with '{' and
// fails the open.
const recordVersion byte = 1

// Record returns op's record up to its frames — the version byte, the
// uvarint length of op's JSON header, the header — with capacity for frames
// more bytes: append the op's entity frames to complete it.
func Record(op Op, frames int) ([]byte, error) {
	hdr, err := json.Marshal(op)
	if err != nil {
		return nil, fmt.Errorf("oplog: encode op: %w", err)
	}
	rec := appendRecordHead(make([]byte, 0, 1+binary.MaxVarintLen64+len(hdr)+frames), len(hdr))
	return append(rec, hdr...), nil
}

// appendRecordHead appends what an op record holds before a JSON header of
// n bytes: the version byte and n as a uvarint.
func appendRecordHead(dst []byte, n int) []byte {
	return binary.AppendUvarint(append(dst, recordVersion), uint64(n))
}

// writeRecord writes an op record to w: the head, the JSON header hdr
// (written as it is, not copied into a record buffer), then the frames
// frames writes.
func writeRecord(w io.Writer, hdr []byte, frames func(io.Writer) error) error {
	var head [1 + binary.MaxVarintLen64]byte
	if _, err := w.Write(appendRecordHead(head[:0], len(hdr))); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return frames(w)
}

// splitRecord splits an op record into its JSON header and its frames, both
// sub-slices of rec.
func splitRecord(rec []byte) (hdr, frames []byte, err error) {
	if len(rec) == 0 || rec[0] != recordVersion {
		return nil, nil, fmt.Errorf("oplog: not an op record of format %d (a record from before payloads rode in the log is bare JSON)", recordVersion)
	}
	n, k := binary.Uvarint(rec[1:])
	if k <= 0 || n > uint64(len(rec)-1-k) {
		return nil, nil, fmt.Errorf("oplog: op record header length runs past the record's %d bytes", len(rec))
	}
	end := 1 + k + int(n)
	return rec[1+k : end], rec[end:], nil
}

// Log is a durable, append-only, totally ordered operation log. It is safe
// for concurrent use: appends serialize, reads snapshot. The decoded ops
// slice is the read path; rec (nil for a volatile log) is the durability
// backend — each append hands it one record, the op's header and frames.
type Log struct {
	mu       sync.RWMutex
	ops      []Op
	payloads [][]byte          // volatile log only: ops[i]'s frames
	lastLSN  uint64            // high-water mark: the LSN of the last op
	rec      storage.RecordLog // nil: volatile (memory-only) log
	closed   bool
}

// NewVolatile constructs a memory-only log with no durability backend (used
// by tests and examples that accept volatility).
func NewVolatile() *Log { return &Log{} }

// OpenStore builds a log over an already-opened record log, replaying its
// records' headers to rebuild the in-memory op sequence; the LSN counter
// resumes past the last op. A record that is not in the op record format,
// fails to decode or regresses the LSN fails the open (and closes rec)
// without changing the record log: it passed its CRC, so it is acknowledged
// data this reader cannot interpret, not a torn tail.
func OpenStore(rec storage.RecordLog) (*Log, error) {
	l := &Log{rec: rec}
	err := rec.Replay(func(record []byte) error {
		hdr, _, err := splitRecord(record)
		if err != nil {
			return err
		}
		var op Op
		if err := json.Unmarshal(hdr, &op); err != nil {
			return err
		}
		if op.LSN <= l.lastLSN {
			// LSNs must strictly increase; a regression means the record is
			// not a continuation of this log (corruption past the CRC).
			return fmt.Errorf("oplog: LSN regression %d after %d", op.LSN, l.lastLSN)
		}
		l.ops = append(l.ops, op)
		l.lastLSN = op.LSN
		return nil
	})
	if err != nil {
		if cerr := rec.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, fmt.Errorf("oplog: replay: %w", err)
	}
	return l, nil
}

// Close releases the backing record log. Append after Close fails; Close is
// idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.rec == nil {
		return nil
	}
	err := l.rec.Close()
	l.rec = nil
	return err
}

// Append assigns the next LSN to op, makes it durable together with its
// entity frames (the concatenation of frames: frame i holds op.EntityIDs[i])
// as one record, and returns the LSN. A volatile log keeps the frames
// themselves, so the caller must not write to them afterwards.
func (l *Log) Append(op Op, frames ...[]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("oplog: append to closed log")
	}
	op.LSN = l.lastLSN + 1
	if l.rec != nil {
		head, err := Record(op, 0)
		if err != nil {
			return 0, err
		}
		if err := l.rec.Append(append([][]byte{head}, frames...)...); err != nil {
			return 0, fmt.Errorf("oplog: write op: %w", err)
		}
	} else if len(frames) == 1 {
		l.payloads = append(l.payloads, frames[0])
	} else {
		l.payloads = append(l.payloads, bytes.Join(frames, nil))
	}
	l.ops = append(l.ops, op)
	l.lastLSN = op.LSN
	return op.LSN, nil
}

// Payload returns the entity frames of the op at lsn, read back from its
// record (a volatile log keeps them, so callers must not write to them):
// how recovery, a late agent and a stopped one reach an old payload.
func (l *Log) Payload(lsn uint64) ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i := l.searchLocked(lsn - 1)
	if lsn == 0 || i == len(l.ops) || l.ops[i].LSN != lsn {
		return nil, fmt.Errorf("oplog: no op at lsn %d", lsn)
	}
	if l.rec == nil {
		return l.payloads[i], nil
	}
	rec, err := l.rec.Read(i)
	if err != nil {
		return nil, fmt.Errorf("oplog: read lsn %d: %w", lsn, err)
	}
	_, frames, err := splitRecord(rec)
	return frames, err
}

// LastLSN returns the LSN of the most recent operation, or 0 when empty.
func (l *Log) LastLSN() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.lastLSN
}

// searchLocked returns the index of the first op with LSN > after. The first
// op may be a base standing for the LSNs below it, so position is found by
// binary search, never by LSN arithmetic.
func (l *Log) searchLocked(after uint64) int {
	return sort.Search(len(l.ops), func(i int) bool { return l.ops[i].LSN > after })
}

// Read returns up to max operations with LSN > after, in order. max <= 0
// means no limit.
func (l *Log) Read(after uint64, max int) []Op {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i := l.searchLocked(after)
	if i >= len(l.ops) {
		return nil
	}
	rest := l.ops[i:]
	if max > 0 && len(rest) > max {
		rest = rest[:max]
	}
	out := make([]Op, len(rest))
	copy(out, rest)
	return out
}

// Compact atomically replaces every op with op, the base: its LSN must be
// the log's last, and the record it gets is op's header followed by the
// entity frames frames writes (frame i holds op.EntityIDs[i]), streamed to
// the record log. The swap is atomic for readers (one lock) and for crashes
// (the record log writes a fresh segment and flips a manifest); a failed
// Compact, frames' error included, leaves the log as it was. A log that is
// already one op at its last LSN holds nothing to conflate and is left as it
// is. The log keeps op, so the caller must not write to its slices or maps
// afterwards; a volatile log keeps the frames, in one buffer. frames runs
// under the log's lock, so it must not call the log.
func (l *Log) Compact(op Op, frames func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("oplog: compact closed log")
	}
	if op.LSN != l.lastLSN {
		return fmt.Errorf("oplog: compact at lsn %d, but the log's last op is %d", op.LSN, l.lastLSN)
	}
	if len(l.ops) == 0 || len(l.ops) == 1 && l.ops[0].LSN == op.LSN {
		return nil
	}
	if l.rec == nil {
		var buf bytes.Buffer
		if err := frames(&buf); err != nil {
			return err
		}
		l.payloads = [][]byte{buf.Bytes()}
	} else {
		hdr, err := json.Marshal(op)
		if err != nil {
			return fmt.Errorf("oplog: encode op: %w", err)
		}
		if err := l.rec.Compact(func(w io.Writer) error { return writeRecord(w, hdr, frames) }); err != nil {
			return fmt.Errorf("oplog: compact records: %w", err)
		}
	}
	l.ops = []Op{op}
	return nil
}

// Len returns the number of ops currently held (after a compaction this is
// smaller than LastLSN).
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.ops)
}
