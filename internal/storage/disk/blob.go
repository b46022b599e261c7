package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DefaultSegmentBytes is the segment rotation threshold of the staging store
// and the record log when their segBytes argument is zero.
const DefaultSegmentBytes = 4 << 20

// blobLoc locates a staged blob: segment index (into segs), byte offset of
// the blob within the segment file, and length.
type blobLoc struct {
	seg int
	off int64
	n   int32
}

// SegmentBlobStore is the disk staging store: blobs append as CRC-framed
// keyed records to rotating segment files, with an in-memory key→location
// index rebuilt by replaying the segments at open. Compared to one file per
// payload, staging costs one write+fsync on an already-open file — directory
// mutation (create + dir fsync) happens only at segment rotation.
//
// Deletes append tombstone records (not fsynced — retention bookkeeping, not
// correctness; a tombstone lost to a crash resurfaces a blob, never loses
// one). Recovery replays each segment up to its first torn or corrupt record
// and truncates there only in the active (last) segment, the one appends
// continue; an earlier segment keeps its bytes and serves its recovered
// prefix. A record that passes its CRC but does not decode is not a tear: it
// fails the open and every file is left as it is.
type SegmentBlobStore struct {
	mu       sync.RWMutex
	dir      string
	segBytes int64
	segs     []*os.File // open segment files, oldest first; last is active
	sizes    []int64    // valid bytes per segment
	idx      map[string]blobLoc
	seq      uint64
	scratch  []byte // framing buffer, reused under mu
	closed   bool
}

// OpenSegmentBlobStore opens (creating if needed) a segment-file staging
// store rooted at dir. Existing blobs are retained and the key sequence
// resumes past them.
func OpenSegmentBlobStore(dir string, segBytes int64) (*SegmentBlobStore, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: staging dir %s: %w", dir, err)
	}
	s := &SegmentBlobStore{dir: dir, segBytes: segBytes, idx: make(map[string]blobLoc)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: scan staging dir: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".seg") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names) // zero-padded numeric names sort chronologically
	for i, name := range names {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
		if err != nil {
			s.closeAll()
			return nil, fmt.Errorf("disk: open segment %s: %w", name, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			s.closeAll()
			return nil, fmt.Errorf("disk: stat segment %s: %w", name, err)
		}
		segIndex := len(s.segs)
		good, err := scanFramed(f, st.Size(), func(frameOff int64, payload []byte) error {
			op, key, valOff, err := decodeKeyed(payload)
			if err != nil {
				return err
			}
			switch op {
			case opPut:
				s.idx[key] = blobLoc{
					seg: segIndex,
					off: frameOff + 8 + int64(valOff),
					n:   int32(len(payload) - valOff),
				}
			case opDel:
				delete(s.idx, key)
			}
			var n uint64
			if _, err := fmt.Sscanf(key, "staging/%d", &n); err == nil && n > s.seq {
				s.seq = n
			}
			return nil
		})
		if err != nil {
			f.Close()
			s.closeAll()
			return nil, fmt.Errorf("disk: recover segment %s at offset %d: %w", name, good, err)
		}
		if good != st.Size() && i == len(names)-1 {
			if err := f.Truncate(good); err != nil {
				f.Close()
				s.closeAll()
				return nil, fmt.Errorf("disk: truncate torn tail of %s: %w", name, err)
			}
		}
		s.segs = append(s.segs, f)
		s.sizes = append(s.sizes, good)
	}
	if len(s.segs) == 0 {
		if err := s.rotateLocked(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *SegmentBlobStore) closeAll() {
	for _, f := range s.segs {
		f.Close()
	}
}

// rotateLocked creates the next segment file and fsyncs the directory entry
// so a crash cannot recover a log op whose payload segment never became
// visible.
func (s *SegmentBlobStore) rotateLocked() error {
	name := fmt.Sprintf("%06d.seg", len(s.segs)+1)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("disk: create segment %s: %w", name, err)
	}
	d, err := os.Open(s.dir)
	if err != nil {
		f.Close()
		return fmt.Errorf("disk: open staging dir: %w", err)
	}
	serr := d.Sync()
	d.Close()
	if serr != nil {
		f.Close()
		return fmt.Errorf("disk: sync staging dir: %w", serr)
	}
	s.segs = append(s.segs, f)
	s.sizes = append(s.sizes, 0)
	return nil
}

// appendLocked frames and appends a keyed record to the active segment,
// returning the blob's location. sync controls whether the segment is
// fsynced (puts yes, tombstones no).
func (s *SegmentBlobStore) appendLocked(op byte, key string, blob []byte, sync bool) (blobLoc, error) {
	active := len(s.segs) - 1
	if s.sizes[active] >= s.segBytes {
		if err := s.rotateLocked(); err != nil {
			return blobLoc{}, err
		}
		active = len(s.segs) - 1
	}
	frame, valOff := appendKeyedRecord(s.scratch, op, key, blob)
	s.scratch = recycle(frame)
	f, off := s.segs[active], s.sizes[active]
	if _, err := f.WriteAt(frame, off); err != nil {
		return blobLoc{}, fmt.Errorf("disk: write blob record: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			return blobLoc{}, fmt.Errorf("disk: sync segment: %w", err)
		}
	}
	s.sizes[active] = off + int64(len(frame))
	return blobLoc{seg: active, off: off + int64(valOff), n: int32(len(blob))}, nil
}

// Stage implements storage.BlobStore: the blob is durable (record written
// and fsynced) before the key is returned, so an operation log entry can
// safely reference it.
func (s *SegmentBlobStore) Stage(payload []byte) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", fmt.Errorf("disk: stage to closed blob store")
	}
	s.seq++
	key := fmt.Sprintf("staging/%08d", s.seq)
	loc, err := s.appendLocked(opPut, key, payload, true)
	if err != nil {
		s.seq--
		return "", fmt.Errorf("disk: stage %s: %w", key, err)
	}
	s.idx[key] = loc
	return key, nil
}

// Get implements storage.BlobStore: a positioned read of exactly the blob
// bytes (CRC verified at open-time replay; runtime reads serve from the
// page cache).
func (s *SegmentBlobStore) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	loc, ok := s.idx[key]
	var f *os.File
	if ok {
		f = s.segs[loc.seg]
	}
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	buf := make([]byte, loc.n)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, false
	}
	return buf, true
}

// Delete implements storage.BlobStore.
func (s *SegmentBlobStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("disk: delete from closed blob store")
	}
	if _, ok := s.idx[key]; !ok {
		return nil
	}
	delete(s.idx, key)
	if _, err := s.appendLocked(opDel, key, nil, false); err != nil {
		return fmt.Errorf("disk: delete %s: %w", key, err)
	}
	return nil
}

// Len implements storage.BlobStore.
func (s *SegmentBlobStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx)
}

// Close implements storage.BlobStore.
func (s *SegmentBlobStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, f := range s.segs {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.segs = nil
	return firstErr
}
