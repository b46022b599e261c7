package disk

import (
	"fmt"
	"os"
	"sync"
)

// kvLoc locates an entity payload: byte offset of the value within the data
// file and its length.
type kvLoc struct {
	off int64
	n   int32
}

// EntityKV is the disk entity store: one append-only data file of CRC-framed
// keyed records with an in-memory key→location index, read through a shared
// read-only mmap. Payload bytes live in the page cache, not the Go heap, so
// the entity index can exceed RAM; the heap holds only keys and 12-byte
// locations.
//
// Puts are not individually fsynced: entity state derives from the operation
// log (the durability anchor), and upserts are idempotent under replay, so a
// tail lost between syncs heals on the next catch-up. Close syncs the file.
// Recovery truncates at the first record cut short or failing its CRC — the
// torn tail a crash mid-append leaves. A record that passes its CRC but does
// not decode is not a tear: it fails the open and the file is left as it is.
type EntityKV struct {
	mu        sync.RWMutex
	f         *os.File
	path      string
	size      int64 // bytes of valid framed records
	mapped    []byte
	idx       map[string]kvLoc
	liveBytes int64  // sum of live value lengths
	scratch   []byte // framing buffer, reused under mu
	closed    bool
}

// OpenEntityKV creates or recovers an entity KV at path.
func OpenEntityKV(path string) (*EntityKV, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open entity kv %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: stat entity kv %s: %w", path, err)
	}
	kv := &EntityKV{f: f, path: path, idx: make(map[string]kvLoc)}
	good, err := scanFramed(f, st.Size(), func(frameOff int64, payload []byte) error {
		op, key, valOff, err := decodeKeyed(payload)
		if err != nil {
			return err
		}
		switch op {
		case opPut:
			if old, ok := kv.idx[key]; ok {
				kv.liveBytes -= int64(old.n)
			}
			n := int32(len(payload) - valOff)
			kv.idx[key] = kvLoc{off: frameOff + 8 + int64(valOff), n: n}
			kv.liveBytes += int64(n)
		case opDel:
			if old, ok := kv.idx[key]; ok {
				kv.liveBytes -= int64(old.n)
				delete(kv.idx, key)
			}
		}
		return nil
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: recover entity kv %s at offset %d: %w", path, good, err)
	}
	kv.size = good
	if good != st.Size() {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("disk: truncate torn tail of %s: %w", path, err)
		}
	}
	if err := kv.remapLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return kv, nil
}

// remapLocked (re)establishes the read mapping to cover the current file
// size. Callers hold the write lock (or have exclusive access at open).
func (kv *EntityKV) remapLocked() error {
	if kv.mapped != nil {
		if err := munmapFile(kv.mapped); err != nil {
			return fmt.Errorf("disk: unmap %s: %w", kv.path, err)
		}
		kv.mapped = nil
	}
	m, err := mmapFile(kv.f, kv.size)
	if err != nil {
		return fmt.Errorf("disk: map %s: %w", kv.path, err)
	}
	kv.mapped = m
	return nil
}

// appendLocked frames and appends a keyed record, returning the value's
// location. Callers hold the write lock.
func (kv *EntityKV) appendLocked(op byte, key string, value []byte) (kvLoc, error) {
	frame, valOff := appendKeyedRecord(kv.scratch, op, key, value)
	kv.scratch = recycle(frame)
	if _, err := kv.f.WriteAt(frame, kv.size); err != nil {
		return kvLoc{}, fmt.Errorf("disk: write entity record: %w", err)
	}
	loc := kvLoc{off: kv.size + int64(valOff), n: int32(len(value))}
	kv.size += int64(len(frame))
	return loc, nil
}

// readLocked copies the value at loc out of the mapping. Callers hold at
// least the read lock and have checked the mapping covers loc.
func (kv *EntityKV) readLocked(loc kvLoc) []byte {
	out := make([]byte, loc.n)
	copy(out, kv.mapped[loc.off:loc.off+int64(loc.n)])
	return out
}

// covered reports whether loc lies within the current mapping.
func (kv *EntityKV) covered(loc kvLoc) bool {
	return loc.off+int64(loc.n) <= int64(len(kv.mapped))
}

// Put implements storage.EntityKV.
func (kv *EntityKV) Put(key string, value []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return fmt.Errorf("disk: put to closed entity kv %s", kv.path)
	}
	loc, err := kv.appendLocked(opPut, key, value)
	if err != nil {
		return err
	}
	if old, ok := kv.idx[key]; ok {
		kv.liveBytes -= int64(old.n)
	}
	kv.idx[key] = loc
	kv.liveBytes += int64(loc.n)
	return nil
}

// Get implements storage.EntityKV. The fast path runs under the read lock
// against the existing mapping; only a location past the mapped size (a
// write since the last remap) takes the write lock to extend the mapping.
func (kv *EntityKV) Get(key string) ([]byte, bool, error) {
	kv.mu.RLock()
	if kv.closed {
		kv.mu.RUnlock()
		return nil, false, fmt.Errorf("disk: get from closed entity kv %s", kv.path)
	}
	loc, ok := kv.idx[key]
	if !ok {
		kv.mu.RUnlock()
		return nil, false, nil
	}
	if kv.covered(loc) {
		out := kv.readLocked(loc)
		kv.mu.RUnlock()
		return out, true, nil
	}
	kv.mu.RUnlock()

	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil, false, fmt.Errorf("disk: get from closed entity kv %s", kv.path)
	}
	loc, ok = kv.idx[key]
	if !ok {
		return nil, false, nil
	}
	if !kv.covered(loc) {
		if err := kv.remapLocked(); err != nil {
			return nil, false, err
		}
	}
	return kv.readLocked(loc), true, nil
}

// Delete implements storage.EntityKV.
func (kv *EntityKV) Delete(key string) (bool, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return false, fmt.Errorf("disk: delete from closed entity kv %s", kv.path)
	}
	old, ok := kv.idx[key]
	if !ok {
		return false, nil
	}
	if _, err := kv.appendLocked(opDel, key, nil); err != nil {
		return false, err
	}
	kv.liveBytes -= int64(old.n)
	delete(kv.idx, key)
	return true, nil
}

// Len implements storage.EntityKV.
func (kv *EntityKV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.idx)
}

// Bytes implements storage.EntityKV: live payload bytes on disk (the
// page-cache working set, not Go heap).
func (kv *EntityKV) Bytes() int64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.liveBytes
}

// Range implements storage.EntityKV. The write lock serializes Range against
// remaps; values are passed as mapping slices valid only during the call, so
// fn must copy anything it keeps — the interface contract.
func (kv *EntityKV) Range(fn func(key string, value []byte) bool) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return fmt.Errorf("disk: range over closed entity kv %s", kv.path)
	}
	if err := kv.remapLocked(); err != nil {
		return err
	}
	for key, loc := range kv.idx {
		if !fn(key, kv.mapped[loc.off:loc.off+int64(loc.n)]) {
			break
		}
	}
	return nil
}

// Close implements storage.EntityKV: sync, unmap, close.
func (kv *EntityKV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil
	}
	kv.closed = true
	var firstErr error
	if err := kv.f.Sync(); err != nil {
		firstErr = err
	}
	if kv.mapped != nil {
		if err := munmapFile(kv.mapped); err != nil && firstErr == nil {
			firstErr = err
		}
		kv.mapped = nil
	}
	if err := kv.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
