// Package entitystore implements the Graph Engine's entity index (§3.1): a
// low-latency key-value store of serialized entity payloads supporting the
// entity-retrieval workload (Entity Cards need the full payload of one entity
// in microseconds). Values are stored in the compact binary codec of the
// triple package; the raw bytes live in a storage.EntityKV — the in-memory
// MemKV holds them in one locked map, the disk medium's KV keeps payloads in
// the OS page cache so the index can exceed RAM. Encoding and decoding happen
// here, outside whatever synchronization the KV uses internally.
package entitystore

import (
	"fmt"

	"saga/internal/storage"
	"saga/internal/triple"
)

// Store is an entity KV store over a byte-level storage.EntityKV. The zero
// value is not usable; call New or NewWith.
type Store struct {
	kv storage.EntityKV
}

// New constructs an empty in-memory store.
func New() *Store { return NewWith(NewMemKV()) }

// NewWith constructs a store over an explicit KV.
func NewWith(kv storage.EntityKV) *Store { return &Store{kv: kv} }

// Put stores (replacing) an entity payload.
func (s *Store) Put(e *triple.Entity) error {
	data, err := e.MarshalBinary()
	if err != nil {
		return fmt.Errorf("entitystore: encode %s: %w", e.ID, err)
	}
	return s.PutEncoded(e.ID, data)
}

// PutEncoded stores (replacing) an entity payload the caller already holds
// in the binary codec — log replay has each entity's record in hand. The
// backend copies data before returning, so it may alias a larger buffer.
func (s *Store) PutEncoded(id triple.EntityID, data []byte) error {
	if err := s.kv.Put(string(id), data); err != nil {
		return fmt.Errorf("entitystore: put %s: %w", id, err)
	}
	return nil
}

// Get retrieves an entity, or nil when absent.
func (s *Store) Get(id triple.EntityID) (*triple.Entity, error) {
	data, ok, err := s.kv.Get(string(id))
	if err != nil {
		return nil, fmt.Errorf("entitystore: get %s: %w", id, err)
	}
	if !ok {
		return nil, nil
	}
	var e triple.Entity
	if err := e.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("entitystore: decode %s: %w", id, err)
	}
	return &e, nil
}

// Delete removes an entity, reporting whether it existed.
func (s *Store) Delete(id triple.EntityID) (bool, error) {
	ok, err := s.kv.Delete(string(id))
	if err != nil {
		return false, fmt.Errorf("entitystore: delete %s: %w", id, err)
	}
	return ok, nil
}

// Len returns the number of stored entities.
func (s *Store) Len() int { return s.kv.Len() }

// Bytes returns the total serialized payload size, for capacity monitoring.
func (s *Store) Bytes() int { return int(s.kv.Bytes()) }

// Range calls fn with each stored entity until fn returns false. Iteration
// order is unspecified. Used for cross-backend state comparison.
func (s *Store) Range(fn func(e *triple.Entity) bool) error {
	var decodeErr error
	err := s.kv.Range(func(key string, value []byte) bool {
		var e triple.Entity
		if err := e.UnmarshalBinary(value); err != nil {
			decodeErr = fmt.Errorf("entitystore: decode %s: %w", key, err)
			return false
		}
		return fn(&e)
	})
	if decodeErr != nil {
		return decodeErr
	}
	if err != nil {
		return fmt.Errorf("entitystore: range: %w", err)
	}
	return nil
}

// Close releases the backend.
func (s *Store) Close() error { return s.kv.Close() }
