// Package storage defines the narrow contracts behind the Graph Engine's
// storage roles.
//
// The paper's Graph Engine (§3.1) is a federation of *independent storage
// engines* — entity index, search index, analytics store — all deriving
// their state from one shared operation log. This package carves the storage
// those engines share, or that must survive a restart, into two role
// interfaces plus the recovery checkpoint store:
//
//   - RecordLog — the operation log's record I/O (ordered, CRC-framed,
//     torn-tail recoverable append storage; the oplog package layers LSNs
//     and the op record format on top). Each op's entity payload rides in
//     its record, so the log is the platform's one durable write per
//     publish.
//   - EntityKV — the entity index's payload KV (serialized entity bytes by
//     entity ID).
//   - Checkpointer — recovery checkpoints keyed by log watermark.
//
// There are two media. The disk package implements every role durably; the
// in-memory entity KV lives in entitystore, while a volatile log is an
// oplog.Log with no record log (it keeps each op's payload in memory) and a
// volatile platform keeps no checkpoints. core.Open picks the medium with a
// switch on StorageOptions.Backend. The in-memory
// indexes that only hold derived state replayed from the log (the text
// index's postings, the vector database) own their maps directly and are not
// storage roles.
//
// The conformance package (storage/conformance) holds the contract suite
// every implementation of a role must pass.
package storage

import "io"

// RecordLog is append-ordered durable record storage: the operation log's
// I/O layer. Appends are atomic at record granularity — a reader never
// observes a half record, because implementations frame records with a
// length+CRC header and drop a torn tail at open (crash-during-append
// recovery). Implementations are safe for concurrent use.
type RecordLog interface {
	// Append durably appends one record, the concatenation of parts (the
	// caller's, copied or written out before return).
	Append(parts ...[]byte) error
	// Read returns record i, counting from the oldest record now in the log
	// (a Compact renumbers the records after it). The slice is the caller's.
	Read(i int) ([]byte, error)
	// Replay calls fn for every record in append order; fn must copy what
	// it keeps of a payload (one buffer is reused). A record fn rejects
	// (fn returns an error) stops the replay, and Replay returns fn's error
	// with the record's position; the log is left unchanged. Every record
	// Replay sees passed its CRC, so it was acknowledged: a record the layer
	// above cannot decode (an op format newer than the reader, a bug) is an
	// error to report, never a torn tail to cut away with everything after
	// it. Torn tails are dropped when the log is opened.
	Replay(fn func(payload []byte) error) error
	// Compact atomically replaces the first drop records with replacement
	// (which may be shorter — compaction conflates per entity and elides
	// tombstones). Records after the first drop are preserved unchanged.
	// The swap is atomic with respect to crashes: a reader reopening the
	// log sees either the old prefix or the new one, never a mix — durable
	// implementations stage the rewrite in fresh segments and flip a
	// manifest. Payload slices are owned by the caller and copied.
	Compact(drop int, replacement [][]byte) error
	// Len returns the number of records currently in the log.
	Len() int
	// Close releases backing resources. Append after Close fails.
	Close() error
}

// Checkpointer stores recovery checkpoints: opaque snapshot payloads keyed by
// the log watermark (LSN) they cover. Recovery loads the latest good
// checkpoint and replays only the log suffix past its watermark, making cold
// start O(suffix) instead of O(log age). Implementations are safe for
// concurrent use; Save is atomic with respect to crashes (a crash mid-save
// leaves the previous latest checkpoint intact and loadable).
type Checkpointer interface {
	// Save durably stores a checkpoint covering every op with LSN <= lsn.
	// The payload is what write writes to the writer it is given: Save
	// streams it to the medium as it comes, so no whole copy of it need
	// exist. An error from write (or from the medium) fails the Save and
	// publishes nothing: Latest still returns the previous checkpoint.
	// Implementations retain at least the latest checkpoint and may discard
	// older ones.
	Save(lsn uint64, write func(io.Writer) error) error
	// Latest returns the newest intact checkpoint, or ok=false when none
	// exists (or none survived corruption — recovery then replays from LSN
	// zero). The returned payload is the caller's.
	Latest() (lsn uint64, payload []byte, ok bool)
	// Close releases backing resources.
	Close() error
}

// BlobStore is a staging object store for ingest payloads, keyed by
// generated staging key — write once, read by any agent, delete after
// retention. The platform stages nothing (payloads ride in the log's
// records); only the benchmark's storage layer still measures it.
// Implementations are safe for concurrent use.
type BlobStore interface {
	// Stage durably writes a payload and returns its generated staging key.
	// The store takes ownership of the payload slice. A staging error must
	// surface here: the payload has to exist before the log records an
	// operation referencing it, or replay stalls every agent at that LSN
	// forever.
	Stage(payload []byte) (string, error)
	// Get reads a staged payload. The returned slice is shared with the
	// store and must not be mutated.
	Get(key string) ([]byte, bool)
	// Delete removes a staged payload after retention. Deleting an absent
	// key is not an error; failures to durably record the removal are.
	Delete(key string) error
	// Len returns the number of staged payloads.
	Len() int
	// Close releases backing resources.
	Close() error
}

// EntityKV is the entity index's payload storage: serialized entity bytes
// keyed by entity ID. Implementations are safe for concurrent use.
type EntityKV interface {
	// Put stores (replacing) a value. The value is copied before return.
	Put(key string, value []byte) error
	// Get retrieves a value, or (nil, false, nil) when absent. The returned
	// slice is the caller's (it stays valid after Close and later writes).
	Get(key string) ([]byte, bool, error)
	// Delete removes a value, reporting whether it existed.
	Delete(key string) (bool, error)
	// Len returns the number of stored values.
	Len() int
	// Bytes returns the total stored value size, for capacity monitoring.
	Bytes() int64
	// Range calls fn for every key/value until fn returns false. The order
	// is unspecified. The value slice is only valid during the call.
	Range(fn func(key string, value []byte) bool) error
	// Close releases backing resources.
	Close() error
}
