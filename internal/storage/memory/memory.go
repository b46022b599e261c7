// Package memory implements the storage backend the platform shipped with:
// every role held in process memory, sharded or mutex-guarded for concurrent
// use. It registers as "memory" — the default backend — and is the
// behavioral reference the disk backend's byte-identity tests compare
// against. Nothing survives a restart; durability in memory deployments
// comes from the operation log being replayable (or from accepting
// volatility, as tests and examples do).
package memory

import (
	"fmt"
	"sync"

	"saga/internal/storage"
)

// backend is the memory storage backend.
type backend struct{}

func init() { storage.Register("memory", backend{}) }

// Name implements storage.Backend.
func (backend) Name() string { return "memory" }

// Durable implements storage.Backend.
func (backend) Durable() bool { return false }

// OpenRecordLog implements storage.Backend.
func (backend) OpenRecordLog(storage.Options) (storage.RecordLog, error) {
	return NewRecordLog(), nil
}

// OpenBlobStore implements storage.Backend.
func (backend) OpenBlobStore(storage.Options) (storage.BlobStore, error) {
	return NewBlobStore(), nil
}

// OpenEntityKV implements storage.Backend.
func (backend) OpenEntityKV(storage.Options) (storage.EntityKV, error) {
	return NewEntityKV(), nil
}

// OpenCheckpoints implements storage.Backend.
func (backend) OpenCheckpoints(storage.Options) (storage.Checkpointer, error) {
	return NewCheckpoints(), nil
}

// RecordLog is the in-memory record log: a slice of payload copies under a
// mutex. It provides ordering and replay but no durability.
type RecordLog struct {
	mu      sync.Mutex
	records [][]byte
	closed  bool
}

// NewRecordLog constructs an empty in-memory record log.
func NewRecordLog() *RecordLog { return &RecordLog{} }

// Append implements storage.RecordLog.
func (l *RecordLog) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("memory: append to closed record log")
	}
	l.records = append(l.records, append([]byte(nil), payload...))
	return nil
}

// Replay implements storage.RecordLog: a record rejected by fn truncates the
// log there (torn-tail semantics, mirroring the durable backends).
func (l *RecordLog) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, rec := range l.records {
		if err := fn(rec); err != nil {
			l.records = l.records[:i]
			return nil
		}
	}
	return nil
}

// Compact implements storage.RecordLog: the prefix swap is a slice splice
// under the log mutex, so readers see the old prefix or the new one, never a
// mix.
func (l *RecordLog) Compact(drop int, replacement [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("memory: compact closed record log")
	}
	if drop < 0 || drop > len(l.records) {
		return fmt.Errorf("memory: compact drop %d out of range (log has %d records)", drop, len(l.records))
	}
	next := make([][]byte, 0, len(replacement)+len(l.records)-drop)
	for _, rec := range replacement {
		next = append(next, append([]byte(nil), rec...))
	}
	next = append(next, l.records[drop:]...)
	l.records = next
	return nil
}

// Len implements storage.RecordLog.
func (l *RecordLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Close implements storage.RecordLog.
func (l *RecordLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// BlobStore is the in-memory staging store: a map of payload copies under a
// RWMutex, with sequential key generation.
type BlobStore struct {
	mu   sync.RWMutex
	data map[string][]byte
	seq  uint64
}

// NewBlobStore constructs an empty in-memory staging store.
func NewBlobStore() *BlobStore {
	return &BlobStore{data: make(map[string][]byte)}
}

// Stage implements storage.BlobStore.
func (s *BlobStore) Stage(payload []byte) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	key := fmt.Sprintf("staging/%08d", s.seq)
	s.data[key] = payload
	return key, nil
}

// Get implements storage.BlobStore.
func (s *BlobStore) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	p, ok := s.data[key]
	s.mu.RUnlock()
	return p, ok
}

// Delete implements storage.BlobStore.
func (s *BlobStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	return nil
}

// Len implements storage.BlobStore.
func (s *BlobStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Close implements storage.BlobStore.
func (s *BlobStore) Close() error { return nil }

// Checkpoints is the in-memory checkpoint store: it honors the Checkpointer
// contract within a process (Latest returns the newest Save) but, like every
// memory role, survives nothing. Memory-backend recovery therefore always
// replays from LSN zero — which is exactly the behavior the crash harness
// compares the checkpointed path against.
type Checkpoints struct {
	mu      sync.Mutex
	lsn     uint64
	payload []byte
	ok      bool
}

// NewCheckpoints constructs an empty in-memory checkpoint store.
func NewCheckpoints() *Checkpoints { return &Checkpoints{} }

// Save implements storage.Checkpointer.
func (c *Checkpoints) Save(lsn uint64, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lsn = lsn
	c.payload = append([]byte(nil), payload...)
	c.ok = true
	return nil
}

// Latest implements storage.Checkpointer.
func (c *Checkpoints) Latest() (uint64, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ok {
		return 0, nil, false
	}
	return c.lsn, append([]byte(nil), c.payload...), true
}

// Close implements storage.Checkpointer.
func (c *Checkpoints) Close() error { return nil }
