package entitystore

import (
	"sync"
	"sync/atomic"
)

// kvShardCount shards the in-memory KV by key hash so concurrent readers on
// different shards never contend.
const kvShardCount = 64

type kvShard struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// MemKV is the in-memory storage.EntityKV: payload copies in maps sharded by
// key hash, one RWMutex per shard.
type MemKV struct {
	shards [kvShardCount]*kvShard
	// readLocks counts read-path lock acquisitions (Get, MultiGet), backing
	// the MultiGet benchmark's locks/op metric: grouping a MultiGet by shard
	// takes each touched shard's lock once instead of one lock per key.
	readLocks atomic.Uint64
}

// NewMemKV constructs an empty in-memory KV.
func NewMemKV() *MemKV {
	s := &MemKV{}
	for i := range s.shards {
		s.shards[i] = &kvShard{data: make(map[string][]byte)}
	}
	return s
}

// kvShardIndex is FNV-1a over the key, the hash the entity store has always
// sharded by.
func kvShardIndex(key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h % kvShardCount
}

func (s *MemKV) shardFor(key string) *kvShard {
	return s.shards[kvShardIndex(key)]
}

// Put implements storage.EntityKV.
func (s *MemKV) Put(key string, value []byte) error {
	v := append([]byte(nil), value...)
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.data[key] = v
	sh.mu.Unlock()
	return nil
}

// Get implements storage.EntityKV.
func (s *MemKV) Get(key string) ([]byte, bool, error) {
	sh := s.shardFor(key)
	s.readLocks.Add(1)
	sh.mu.RLock()
	v, ok := sh.data[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// MultiGet implements storage.EntityKV: the requested keys are grouped by
// shard and each touched shard's read lock is taken once — len(distinct
// shards) acquisitions instead of len(keys) — with the copies made inside
// the lock and any decoding left to the caller outside it.
func (s *MemKV) MultiGet(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	// Group key positions by shard. The common case touches a handful of
	// shards; a fixed-size bucket table avoids allocating a map per call.
	var buckets [kvShardCount][]int
	for i, key := range keys {
		sh := kvShardIndex(key)
		buckets[sh] = append(buckets[sh], i)
	}
	for sh, idxs := range buckets {
		if len(idxs) == 0 {
			continue
		}
		shard := s.shards[sh]
		s.readLocks.Add(1)
		shard.mu.RLock()
		for _, i := range idxs {
			if v, ok := shard.data[keys[i]]; ok {
				out[i] = append([]byte(nil), v...)
			}
		}
		shard.mu.RUnlock()
	}
	return out, nil
}

// Delete implements storage.EntityKV.
func (s *MemKV) Delete(key string) (bool, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.data[key]
	delete(sh.data, key)
	return ok, nil
}

// Len implements storage.EntityKV.
func (s *MemKV) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.data)
		sh.mu.RUnlock()
	}
	return n
}

// Bytes implements storage.EntityKV.
func (s *MemKV) Bytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, v := range sh.data {
			n += int64(len(v))
		}
		sh.mu.RUnlock()
	}
	return n
}

// Range implements storage.EntityKV. Each shard is read-locked in turn, so
// the iteration is per-shard consistent, not globally consistent.
func (s *MemKV) Range(fn func(key string, value []byte) bool) error {
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, v := range sh.data {
			if !fn(k, v) {
				sh.mu.RUnlock()
				return nil
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// Close implements storage.EntityKV.
func (s *MemKV) Close() error { return nil }

// ReadLocks returns the cumulative read-path lock acquisitions (Get and
// MultiGet), for the MultiGet sharding benchmark.
func (s *MemKV) ReadLocks() uint64 { return s.readLocks.Load() }
