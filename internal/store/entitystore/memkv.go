package entitystore

import "sync"

// MemKV is the in-memory storage.EntityKV: payload copies in one map under
// one RWMutex.
type MemKV struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemKV constructs an empty in-memory KV.
func NewMemKV() *MemKV { return &MemKV{data: make(map[string][]byte)} }

// Put implements storage.EntityKV.
func (s *MemKV) Put(key string, value []byte) error {
	v := append([]byte(nil), value...)
	s.mu.Lock()
	s.data[key] = v
	s.mu.Unlock()
	return nil
}

// Get implements storage.EntityKV.
func (s *MemKV) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Delete implements storage.EntityKV.
func (s *MemKV) Delete(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.data[key]
	delete(s.data, key)
	return ok, nil
}

// Len implements storage.EntityKV.
func (s *MemKV) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Bytes implements storage.EntityKV.
func (s *MemKV) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, v := range s.data {
		n += int64(len(v))
	}
	return n
}

// Range implements storage.EntityKV. The read lock is held for the whole
// iteration, so fn must not write to the KV.
func (s *MemKV) Range(fn func(key string, value []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.data {
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

// Close implements storage.EntityKV.
func (s *MemKV) Close() error { return nil }
