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
// decoded op headers in memory and delegates record durability to a
// storage.RecordLog, which preserves the properties the platform relies on:
// durability, total order, replay from an arbitrary LSN, and atomic
// compaction. An op's record is the format version byte, its binary header
// (AppendHeader), then its entity frames. A durable log holds no payload in
// memory, and no log holds a base's header: Load decodes it from the record.
package oplog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"maps"
	"slices"
	"sort"
	"sync"

	"saga/internal/pmap"
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
// entity payload follows the header in the op's record (Log.Load). Kind,
// Source and StagingKey are not recorded: a decoded op is an OpUpsert.
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

// recordVersion is the first byte of every op record. Format 1 had a JSON
// header, and a record written before payloads rode in the log is bare JSON
// (it starts with '{'); both fail the open.
const recordVersion byte = 2

// AppendHeader appends op's record up to its frames to dst: the version
// byte, then op's header — the LSN, then the uvarint-counted, length-prefixed
// entity IDs, deletes, link pairs in source order (so an op has one
// encoding) and unlinks.
func AppendHeader(dst []byte, op Op) []byte {
	dst = binary.AppendUvarint(append(dst, recordVersion), op.LSN)
	dst = appendIDs(appendIDs(dst, op.EntityIDs), op.Deletes)
	dst = binary.AppendUvarint(dst, uint64(len(op.Links)))
	for _, src := range slices.Sorted(maps.Keys(op.Links)) {
		dst = appendID(appendID(dst, src), op.Links[src])
	}
	return appendIDs(dst, op.Unlinks)
}

func appendIDs(dst []byte, ids []triple.EntityID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendID(dst, id)
	}
	return dst
}

func appendID(dst []byte, id triple.EntityID) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(id))), id...)
}

// decodeRecord decodes an op record's header and returns the op, its entity
// count and its frames, a sub-slice of rec. With keep false the IDs and
// links are checked but not kept: the op holds its LSN alone.
func decodeRecord(rec []byte, keep bool) (Op, int, []byte, error) {
	if len(rec) == 0 || rec[0] != recordVersion {
		return Op{}, 0, nil, fmt.Errorf("oplog: not an op record of format %d: version byte %q (format 1's op header was JSON, and a record from before payloads rode in the log is bare JSON)", recordVersion, rec[:min(len(rec), 1)])
	}
	r := triple.NewReader(rec[1:])
	op := Op{LSN: r.Uvarint("lsn"), Kind: OpUpsert}
	n := r.Count("entity count", 1)
	op.EntityIDs = readIDs(r, n, keep)
	op.Deletes = readIDs(r, r.Count("delete count", 1), keep)
	links, err := readLinks(r, r.Count("link count", 2), keep)
	op.Links = links
	op.Unlinks = readIDs(r, r.Count("unlink count", 1), keep)
	if err = errors.Join(r.Err(), err); err != nil {
		return Op{}, 0, nil, fmt.Errorf("oplog: op record of %d bytes: %w", len(rec), err)
	}
	return op, n, r.Rest(), nil
}

func readIDs(r *triple.Reader, n int, keep bool) (ids []triple.EntityID) {
	for i := range n {
		if id := r.Bytes("id"); keep {
			ids = append(slices.Grow(ids, n-i), triple.EntityID(id))
		}
	}
	return ids
}

// readLinks reads n link pairs, whose sources must strictly increase.
func readLinks(r *triple.Reader, n int, keep bool) (links map[triple.EntityID]triple.EntityID, _ error) {
	if keep && n > 0 {
		links = make(map[triple.EntityID]triple.EntityID, n)
	}
	var prev []byte
	for i := range n {
		src, tgt := r.Bytes("link source"), r.Bytes("link target")
		if r.Err() == nil && i > 0 && bytes.Compare(src, prev) <= 0 {
			return nil, fmt.Errorf("link %d's source %q does not follow %q", i, src, prev)
		}
		if prev = src; keep {
			links[triple.EntityID(src)] = triple.EntityID(tgt)
		}
	}
	return links, nil
}

// Log is a durable, append-only, totally ordered operation log. It is safe
// for concurrent use: appends serialize, reads snapshot. The decoded op
// headers are the read path; rec (nil for a volatile log) is the durability
// backend — each append hands it one record, the op's header and frames.
type Log struct {
	mu       sync.RWMutex
	ops      []Op
	baseLSN  uint64            // nonzero: ops[0] is a base held as its LSN alone (Base); Load decodes the rest
	baseN    int               // the base's entity count
	payloads [][]byte          // volatile log only: ops[i]'s frames; ops[0]'s whole record when base
	head     []byte            // durable log only: Append's header buffer, reused under mu
	lastLSN  uint64            // high-water mark: the LSN of the last op
	rec      storage.RecordLog // nil: volatile (memory-only) log
	closed   bool
}

// NewVolatile constructs a memory-only log with no durability backend (used
// by tests and examples that accept volatility).
func NewVolatile() *Log { return &Log{} }

// OpenStore builds a log over an already-opened record log, replaying its
// records' headers to rebuild the in-memory op sequence; the LSN counter
// resumes past the last op. The first record is the base: its header is
// checked and only its LSN and entity count kept. A record that is not in
// the op record format, fails to decode or regresses the LSN fails the open
// (and closes rec) without changing the record log: it passed its CRC, so it
// is acknowledged data this reader cannot interpret, not a torn tail.
func OpenStore(rec storage.RecordLog) (*Log, error) {
	l := &Log{rec: rec}
	err := rec.Replay(func(record []byte) error {
		op, n, _, err := decodeRecord(record, len(l.ops) > 0)
		if err != nil {
			return err
		}
		if op.LSN <= l.lastLSN {
			// LSNs must strictly increase; a regression means the record is
			// not a continuation of this log (corruption past the CRC).
			return fmt.Errorf("oplog: LSN regression %d after %d", op.LSN, l.lastLSN)
		}
		if len(l.ops) == 0 {
			l.baseLSN, l.baseN = op.LSN, n
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
// as one record, and returns the LSN. A volatile log keeps op and the frames
// themselves, so the caller must not write to them afterwards.
func (l *Log) Append(op Op, frames ...[]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("oplog: append to closed log")
	}
	op.LSN = l.lastLSN + 1
	if l.rec != nil {
		l.head = AppendHeader(l.head[:0], op)
		if err := l.rec.Append(append([][]byte{l.head}, frames...)...); err != nil {
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

// Load returns the op at lsn with its entity frames, read back from its
// record (a volatile log keeps them, so callers must not write to them): how
// recovery, a late agent and a stopped one reach an old op. The base's
// header is decoded from its record here, and only here.
func (l *Log) Load(lsn uint64) (Op, []byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i := l.searchLocked(lsn - 1)
	if lsn == 0 || i == len(l.ops) || l.ops[i].LSN != lsn {
		return Op{}, nil, fmt.Errorf("oplog: no op at lsn %d", lsn)
	}
	held := lsn == l.baseLSN
	var rec []byte
	var err error
	switch {
	case l.rec != nil:
		if rec, err = l.rec.Read(i); err != nil {
			return Op{}, nil, fmt.Errorf("oplog: read lsn %d: %w", lsn, err)
		}
	case held:
		rec = l.payloads[0]
	default:
		return l.ops[i], l.payloads[i], nil
	}
	op, _, frames, err := decodeRecord(rec, held)
	if !held {
		op = l.ops[i]
	}
	return op, frames, err
}

// Base returns the LSN and entity count of a base held as its record, if any.
func (l *Log) Base() (lsn uint64, entities int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.baseLSN, l.baseN
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
// means no limit. A base held as its record (Base) comes back with its LSN
// and Kind alone: Load decodes the rest.
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

// Base is a checkpoint's base op as streams, so that neither Compact nor the
// log holds its IDs or links: IDs yields its N entity IDs in frame order,
// Links is the link table (a pmap yields it in source order), and Frames
// writes the payload, frame i holding the i-th ID's entity.
type Base struct {
	LSN    uint64
	N      int
	IDs    iter.Seq[triple.EntityID]
	Links  pmap.Map[triple.EntityID, triple.EntityID]
	Frames func(io.Writer) error
}

// Compact atomically replaces every op with the base b, whose LSN must be
// the log's last; its record streams to the record log. The swap is atomic
// for readers (one lock) and for crashes (the record log writes a fresh
// segment and flips a manifest); a failed Compact, an error from b's streams
// included, leaves the log as it was. A log already one op at its last LSN
// is left as it is. The log then holds the base as its LSN and entity count
// (Base), a volatile log its record too. b's streams run under the log's
// lock, so they must not call the log.
func (l *Log) Compact(b Base) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("oplog: compact closed log")
	}
	if b.LSN != l.lastLSN {
		return fmt.Errorf("oplog: compact at lsn %d, but the log's last op is %d", b.LSN, l.lastLSN)
	}
	if len(l.ops) == 0 || len(l.ops) == 1 && l.ops[0].LSN == b.LSN {
		return nil
	}
	if l.rec == nil {
		var buf bytes.Buffer
		if err := writeBase(&buf, b); err != nil {
			return err
		}
		l.payloads = [][]byte{buf.Bytes()}
	} else if err := l.rec.Compact(func(w io.Writer) error { return writeBase(w, b) }); err != nil {
		return fmt.Errorf("oplog: compact records: %w", err)
	}
	l.ops = []Op{{LSN: b.LSN, Kind: OpUpsert}}
	l.baseLSN, l.baseN = b.LSN, b.N
	return nil
}

// writeBase writes b's record to w: the bytes AppendHeader and the frames
// give for the op b stands for.
func writeBase(w io.Writer, b Base) error {
	bw := bufio.NewWriterSize(w, 1024) // its first error sticks: Flush returns it
	buf := binary.AppendUvarint(binary.AppendUvarint(append(make([]byte, 0, 64), recordVersion), b.LSN), uint64(b.N))
	bw.Write(buf)
	n := 0
	for id := range b.IDs {
		buf = appendID(buf[:0], id)
		bw.Write(buf)
		n++
	}
	if n != b.N {
		return fmt.Errorf("oplog: compact: the base lists %d entities, its IDs yield %d", b.N, n)
	}
	bw.Write(binary.AppendUvarint(append(buf[:0], 0), uint64(b.Links.Len()))) // no deletes
	for src, tgt := range b.Links.All() {
		buf = appendID(appendID(buf[:0], src), tgt)
		bw.Write(buf)
	}
	bw.WriteByte(0) // no unlinks
	if err := bw.Flush(); err != nil {
		return err
	}
	return b.Frames(w)
}

// Len returns the number of ops currently held (after a compaction this is
// smaller than LastLSN).
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.ops)
}
