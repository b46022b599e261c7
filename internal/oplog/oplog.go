// Package oplog implements the durable shared operation log that coordinates
// continuous ingest across the Graph Engine's storage engines (§3.1). The KG
// construction pipeline is the sole producer: it appends ingest operations
// to the log, one per publish group, each with its entity payload in the
// same record. Orchestration agents replay operations in order, so all
// stores eventually derive their views of the KG from the same base data in
// the same order.
//
// LSNs are monotonically increasing but — since log compaction landed — not
// dense: compaction conflates a prefix of the log to per-entity final states
// and elides tombstoned entities entirely, so surviving ops keep their
// original LSNs with gaps where conflated-away ops used to be. Every
// consumer indexes by LSN value (binary search), never by slice position.
//
// The paper's log is a distributed service; this implementation keeps the
// decoded operations in memory and delegates record durability to a
// storage.RecordLog, which preserves the properties the platform relies on:
// durability, total order, replay from an arbitrary LSN, and atomic prefix
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
	// LSN is the log sequence number, assigned by Append. Monotonic but not
	// dense (see the package comment).
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
	// it rides the log: replay applies Links after the payload, and
	// compaction conflates them per source ID exactly like entity state.
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
	rec := append(make([]byte, 0, 1+binary.MaxVarintLen64+len(hdr)+frames), recordVersion)
	return append(binary.AppendUvarint(rec, uint64(len(hdr))), hdr...), nil
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
	lastLSN  uint64            // high-water mark; survives compaction of the ops holding it
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
// how recovery, a stopped agent and compaction reach an old payload.
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

// searchLocked returns the index of the first op with LSN > after. LSNs are
// sparse after compaction, so position is found by binary search, never by
// LSN arithmetic.
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

// OpsThrough returns every op with LSN <= w, in order: the compaction input
// (and nothing else reads a prefix, so the name says what it is for). The
// slice shares the log's memory instead of copying it — an appended op is
// never written again (appends go past it, ReplaceRange builds a new slice)
// — so callers read it and must not write to it.
func (l *Log) OpsThrough(w uint64) []Op {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := l.searchLocked(w)
	return l.ops[:n:n]
}

// ReplaceRange atomically replaces every op with LSN <= w by rewritten,
// which must be in strictly increasing LSN order with every LSN <= w
// (compaction preserves surviving ops' original LSNs, so this holds by
// construction); records[i] is rewritten[i]'s whole record, as Record
// begins it and its frames complete it. The swap is atomic for readers (one
// lock) and for crashes (the record log stages the rewrite and flips a
// manifest). Every agent is already at or past w when compaction runs.
func (l *Log) ReplaceRange(w uint64, rewritten []Op, records [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("oplog: compact closed log")
	}
	if len(records) != len(rewritten) {
		return fmt.Errorf("oplog: %d records for %d rewritten ops", len(records), len(rewritten))
	}
	for i, op := range rewritten {
		if op.LSN > w {
			return fmt.Errorf("oplog: rewritten op LSN %d past watermark %d", op.LSN, w)
		}
		if i > 0 && op.LSN <= rewritten[i-1].LSN {
			return fmt.Errorf("oplog: rewritten ops out of order (%d after %d)", op.LSN, rewritten[i-1].LSN)
		}
	}
	drop := l.searchLocked(w)
	if l.rec != nil {
		if err := l.rec.Compact(drop, records); err != nil {
			return fmt.Errorf("oplog: compact records: %w", err)
		}
	} else {
		payloads := make([][]byte, 0, len(rewritten)+len(l.ops)-drop)
		for _, rec := range records {
			_, frames, err := splitRecord(rec)
			if err != nil {
				return err
			}
			payloads = append(payloads, frames)
		}
		l.payloads = append(payloads, l.payloads[drop:]...)
	}
	l.ops = append(append(make([]Op, 0, len(rewritten)+len(l.ops)-drop), rewritten...), l.ops[drop:]...)
	return nil
}

// Len returns the number of ops currently held (post-compaction this is
// smaller than LastLSN).
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.ops)
}

// PrefixLen returns the number of ops with LSN <= w: the compaction
// trigger's measure of how much cold prefix has accumulated.
func (l *Log) PrefixLen(w uint64) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.searchLocked(w)
}
