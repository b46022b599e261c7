// Package oplog implements the durable shared operation log that coordinates
// continuous ingest across the Graph Engine's storage engines (§3.1). The KG
// construction pipeline is the sole producer: it stages data payloads in the
// object store and appends ingest operations to the log, one per publish
// group. Orchestration agents replay operations in order, so all stores
// eventually derive their views of the KG from the same base data in the
// same order.
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
// compaction.
package oplog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"saga/internal/storage"
	"saga/internal/triple"
)

// OpKind enumerates ingest operation types. No agent and no compaction
// switches on it: every op applies its payload entities, then its Deletes,
// then its link deltas, and a checkpoint marker simply carries none of them.
type OpKind string

// Operation kinds.
const (
	// OpUpsert publishes a group's changes: payload entities, deletions and
	// link-table deltas.
	OpUpsert OpKind = "upsert"
	// OpCheckpoint marks a consistent point after a construction run;
	// recovery restores from the checkpoint snapshot whose watermark is this
	// op's LSN.
	OpCheckpoint OpKind = "checkpoint"
)

// Op is one logged ingest operation. Large payloads live in the staging
// object store; the op carries only the staging key and the affected entity
// IDs, which incremental view maintenance consumes directly.
type Op struct {
	// LSN is the log sequence number, assigned by Append. Monotonic but not
	// dense (see the package comment).
	LSN uint64 `json:"lsn"`
	// Kind is the operation type.
	Kind OpKind `json:"kind"`
	// Source names the data source the operation originated from. Nothing
	// reads it; the platform's group ops leave it empty.
	Source string `json:"source,omitempty"`
	// StagingKey locates the payload in the staging object store.
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
	// Time is the append timestamp (unix nanos).
	Time int64 `json:"time"`
}

// Log is a durable, append-only, totally ordered operation log. It is safe
// for concurrent use: appends serialize, reads snapshot. The decoded ops
// slice is the read path; rec (nil for a volatile log) is the durability
// backend — each append is JSON-encoded and handed to it as one record.
type Log struct {
	mu      sync.RWMutex
	ops     []Op
	lastLSN uint64            // high-water mark; survives compaction of the ops holding it
	rec     storage.RecordLog // nil: volatile (memory-only) log
	closed  bool
}

// NewVolatile constructs a memory-only log with no durability backend (used
// by tests and examples that accept volatility).
func NewVolatile() *Log { return &Log{} }

// OpenStore builds a log over an already-opened record log, replaying its
// records to rebuild the in-memory op sequence; the LSN counter resumes past
// the last op. A record that fails to decode or regresses the LSN fails the
// open (and closes rec) without changing the record log: it passed its CRC,
// so it is acknowledged data this reader cannot interpret, not a torn tail.
func OpenStore(rec storage.RecordLog) (*Log, error) {
	l := &Log{rec: rec}
	err := rec.Replay(func(payload []byte) error {
		var op Op
		if err := json.Unmarshal(payload, &op); err != nil {
			return err
		}
		if op.Kind == "delete" { // written before deletes rode their group's op
			op.Kind, op.Deletes, op.EntityIDs = OpUpsert, op.EntityIDs, nil
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

// Append assigns the next LSN to op, makes it durable, and returns the LSN.
func (l *Log) Append(op Op) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("oplog: append to closed log")
	}
	op.LSN = l.lastLSN + 1
	if op.Time == 0 {
		op.Time = time.Now().UnixNano()
	}
	if l.rec != nil {
		payload, err := json.Marshal(op)
		if err != nil {
			return 0, fmt.Errorf("oplog: encode op: %w", err)
		}
		if err := l.rec.Append(payload); err != nil {
			return 0, fmt.Errorf("oplog: write op: %w", err)
		}
	}
	l.ops = append(l.ops, op)
	l.lastLSN = op.LSN
	return op.LSN, nil
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
// construction). The swap is atomic for readers (one lock) and for crashes
// (the record log stages the rewrite and flips a manifest). Every agent is
// already at or past w when compaction runs.
func (l *Log) ReplaceRange(w uint64, rewritten []Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("oplog: compact closed log")
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
		recs := make([][]byte, len(rewritten))
		for i, op := range rewritten {
			payload, err := json.Marshal(op)
			if err != nil {
				return fmt.Errorf("oplog: encode compacted op: %w", err)
			}
			recs[i] = payload
		}
		if err := l.rec.Compact(drop, recs); err != nil {
			return fmt.Errorf("oplog: compact records: %w", err)
		}
	}
	next := make([]Op, 0, len(rewritten)+len(l.ops)-drop)
	next = append(next, rewritten...)
	next = append(next, l.ops[drop:]...)
	l.ops = next
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
