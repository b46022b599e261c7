package disk

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"saga/internal/triple"
)

// manifestName is the record log's segment manifest: one segment file name
// per line, oldest first. The manifest is the log's single source of truth —
// a .seg file not listed in it does not exist (it is a leftover from a
// crashed compaction or rotation and is removed at open). Every structural
// change (rotation, compaction) writes a fresh
// manifest to a temp file, fsyncs it, renames it over the old one, and fsyncs
// the directory, so readers reopening after a crash see either the old
// segment set or the new one — never a mix.
const manifestName = "MANIFEST"

// RecordLog is the durable record log: CRC-framed records appended to
// rotating segment files under one directory, with a manifest naming the
// live segments. Open recovers the valid prefix of each listed segment and
// truncates a torn tail (crash during append); Append fsyncs per record —
// the operation log is the platform's durability anchor, so an acknowledged
// append must survive a crash. Memory holds only each record's frame offset
// (the Bitcask layout): Read is one positioned read of the frame.
//
// Segmentation is what makes compaction atomic: Compact writes its one
// record to a fresh segment, flips the manifest, and only then deletes the
// replaced segments. A crash on either side of the flip leaves a fully
// consistent log (stale new segment removed as an orphan, or stale old
// segments removed as orphans).
type RecordLog struct {
	mu       sync.Mutex
	dir      string
	segBytes int64
	names    []string      // live segment file names, oldest first
	segs     []*os.File    // open segment files, aligned with names
	sizes    []int64       // valid framed bytes per segment
	offs     [][]int64     // frame offset of each record, per segment
	nextSeg  uint64        // next segment sequence number (monotonic, never reused)
	scratch  []byte        // framing buffer, reused under mu
	bw       *bufio.Writer // Compact's write buffer, made at the first and reused under mu
	closed   bool
}

// OpenRecordLog creates or recovers a segmented record log rooted at dir.
// segBytes is the rotation threshold for appends (0 = DefaultSegmentBytes);
// it does not bound the record Compact writes.
func OpenRecordLog(dir string, segBytes int64) (*RecordLog, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: record log dir %s: %w", dir, err)
	}
	l := &RecordLog{dir: dir, segBytes: segBytes}

	listed, err := l.readManifest()
	if err != nil {
		return nil, err
	}
	// Every .seg on disk — listed or orphaned — advances the sequence so a
	// name is never reused, even across a crashed compaction.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: scan record log dir: %w", err)
	}
	inManifest := make(map[string]bool, len(listed))
	for _, name := range listed {
		inManifest[name] = true
	}
	for _, ent := range entries {
		name := ent.Name()
		if n, ok := segmentNumber(name); ok {
			if n >= l.nextSeg {
				l.nextSeg = n + 1
			}
			if !inManifest[name] {
				// Orphan from a crashed rotation/compaction: the manifest
				// never adopted it, so its contents were never acknowledged
				// (rotation publishes the manifest before appending) or were
				// superseded (compaction). Remove it.
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return nil, fmt.Errorf("disk: remove orphan segment %s: %w", name, err)
				}
			}
		}
		if name == manifestName+".tmp" {
			os.Remove(filepath.Join(dir, name)) //saga:errok — stale temp, best effort
		}
	}
	if l.nextSeg == 0 {
		l.nextSeg = 1
	}

	for _, name := range listed {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
		if err != nil {
			l.closeAll()
			return nil, fmt.Errorf("disk: open log segment %s: %w", name, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			l.closeAll()
			return nil, fmt.Errorf("disk: stat log segment %s: %w", name, err)
		}
		var offs []int64
		good, err := scanFramed(f, st.Size(), func(off int64, _ []byte) error {
			offs = append(offs, off)
			return nil
		})
		if err != nil {
			f.Close()
			l.closeAll()
			return nil, fmt.Errorf("disk: recover log segment %s: %w", name, err)
		}
		if good != st.Size() {
			if err := f.Truncate(good); err != nil {
				f.Close()
				l.closeAll()
				return nil, fmt.Errorf("disk: truncate torn tail of %s: %w", name, err)
			}
		}
		l.names = append(l.names, name)
		l.segs = append(l.segs, f)
		l.sizes = append(l.sizes, good)
		l.offs = append(l.offs, offs)
	}
	if len(l.segs) == 0 {
		if err := l.rotateLocked(); err != nil {
			l.closeAll()
			return nil, err
		}
	}
	return l, nil
}

func (l *RecordLog) closeAll() {
	for _, f := range l.segs {
		f.Close()
	}
	l.segs = nil
}

// readManifest returns the listed segment names (absent manifest = empty
// log).
func (l *RecordLog) readManifest() ([]string, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("disk: read log manifest: %w", err)
	}
	return parseManifest(data)
}

// parseManifest parses a manifest's segment list, in manifest order. Every
// name must be a segment name (segmentNumber) listed once: a name with any
// other text in it could reach outside the log directory.
func parseManifest(data []byte) ([]string, error) {
	var names []string
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if _, ok := segmentNumber(line); !ok || seen[line] {
			return nil, fmt.Errorf("disk: log manifest lists invalid segment %q", line)
		}
		seen[line] = true
		names = append(names, line)
	}
	return names, nil
}

// segmentName is the file name of record log segment n.
func segmentName(n uint64) string { return fmt.Sprintf("%06d.seg", n) }

// segmentNumber parses a segment file name, accepting exactly the names
// segmentName produces.
func segmentNumber(name string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "%d.seg", &n); err != nil || name != segmentName(n) {
		return 0, false
	}
	return n, true
}

// writeManifestLocked durably publishes a new segment list: temp file, fsync,
// rename over the manifest, directory fsync. The rename is the atomic commit
// point for every structural log change: once renamed, the new list is the
// log's even if err is not nil, and the caller must adopt it.
func (l *RecordLog) writeManifestLocked(names []string) (renamed bool, err error) {
	tmp := filepath.Join(l.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, fmt.Errorf("disk: create manifest temp: %w", err)
	}
	var buf bytes.Buffer
	for _, name := range names {
		buf.WriteString(name)
		buf.WriteByte('\n')
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return false, fmt.Errorf("disk: write manifest temp: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("disk: sync manifest temp: %w", err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("disk: close manifest temp: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, manifestName)); err != nil {
		return false, fmt.Errorf("disk: publish manifest: %w", err)
	}
	return true, l.syncDirLocked()
}

// syncDirHook, when set (tests only), runs after every directory fsync and
// can fail it.
var syncDirHook func(dir string) error

func (l *RecordLog) syncDirLocked() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("disk: open record log dir: %w", err)
	}
	serr := d.Sync()
	if serr == nil && syncDirHook != nil {
		serr = syncDirHook(l.dir)
	}
	d.Close()
	if serr != nil {
		return fmt.Errorf("disk: sync record log dir: %w", serr)
	}
	return nil
}

// rotateLocked creates the next segment and publishes it in the manifest
// BEFORE any record lands in it: a crash between file creation and manifest
// publish leaves an orphan holding no acknowledged data. A renamed manifest
// adopts the segment, whatever the directory fsync after it returns.
func (l *RecordLog) rotateLocked() error {
	name := segmentName(l.nextSeg)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("disk: create log segment %s: %w", name, err)
	}
	if err := l.syncDirLocked(); err != nil {
		f.Close()
		return err
	}
	renamed, err := l.writeManifestLocked(append(append([]string(nil), l.names...), name))
	if !renamed {
		f.Close()
		return err
	}
	l.nextSeg++
	l.names = append(l.names, name)
	l.segs = append(l.segs, f)
	l.sizes = append(l.sizes, 0)
	l.offs = append(l.offs, nil)
	return err
}

// Append implements storage.RecordLog: frame the parts as one record, write,
// fsync (rotating first when the active segment is full).
func (l *RecordLog) Append(parts ...[]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("disk: append to closed record log %s", l.dir)
	}
	active := len(l.segs) - 1
	if l.sizes[active] >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
		active = len(l.segs) - 1
	}
	frame, mark := triple.BeginRecord(l.scratch)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	frame = triple.EndRecord(frame, mark)
	l.scratch = recycle(frame)
	f, off := l.segs[active], l.sizes[active]
	if _, err := f.WriteAt(frame, off); err != nil {
		return fmt.Errorf("disk: write record: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("disk: sync record log: %w", err)
	}
	l.sizes[active] = off + int64(len(frame))
	l.offs[active] = append(l.offs[active], off)
	return nil
}

// locateLocked returns the segment holding record i and the record's index
// within it; k is len(segs) when i is past the last record.
func (l *RecordLog) locateLocked(i int) (k, j int) {
	for k < len(l.offs) && i >= len(l.offs[k]) {
		i -= len(l.offs[k])
		k++
	}
	return k, i
}

// Read implements storage.RecordLog: one positioned read of the record's
// frame, then its CRC check.
func (l *RecordLog) Read(i int) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("disk: read of closed record log %s", l.dir)
	}
	k, j := l.locateLocked(i)
	if i < 0 || k == len(l.segs) {
		return nil, fmt.Errorf("disk: read of record %d out of range (log has %d records)", i, l.lenLocked())
	}
	off, end := l.offs[k][j], l.sizes[k]
	if j+1 < len(l.offs[k]) {
		end = l.offs[k][j+1]
	}
	frame := make([]byte, end-off)
	_, err := l.segs[k].ReadAt(frame, off)
	if err == nil {
		frame, _, err = triple.NextRecord(frame)
	}
	if err != nil {
		return nil, fmt.Errorf("disk: read record %d of %s at offset %d: %w", i, l.names[k], off, err)
	}
	return frame, nil
}

// Replay implements storage.RecordLog: records stream to fn segment by
// segment in append order, each read into one reused buffer. A record fn
// rejects stops the replay with fn's error, naming the segment and offset;
// the log's files are left as they are.
func (l *RecordLog) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("disk: replay of closed record log %s", l.dir)
	}
	for i := range l.segs {
		off, err := scanFramed(l.segs[i], l.sizes[i], func(_ int64, payload []byte) error {
			return fn(payload)
		})
		if err != nil {
			return fmt.Errorf("disk: replay %s at offset %d: %w", l.names[i], off, err)
		}
	}
	return nil
}

// rewriteBuffer is the size of the write buffer a record log keeps for its
// compactions: the one allocation a compacted record's bytes pass through.
const rewriteBuffer = 64 << 10

// Compact implements storage.RecordLog. The record streams from write into
// a fresh segment, is fsynced, adopted by a manifest flip, and only then
// are the old segments deleted — so a reader reopening after a crash at any
// point sees the old records or the new one in full. The frame header goes
// in last: a placeholder holds its place while the payload streams through
// the log's write buffer and a frameWriter that keeps the payload's length
// and CRC, and WriteAt patches it in. The bytes are those of the payload
// framed whole in memory, and the payload is never held. The new segment is
// the active one: appends continue in it. A renamed manifest adopts it,
// whatever the directory fsync after it returns.
func (l *RecordLog) Compact(write func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("disk: compact closed record log %s", l.dir)
	}
	name := segmentName(l.nextSeg)
	nf, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("disk: create compaction segment %s: %w", name, err)
	}
	size, err := l.writeFrameLocked(nf, write)
	if err == nil {
		err = l.syncDirLocked()
	}
	renamed := false
	if err == nil {
		renamed, err = l.writeManifestLocked([]string{name})
	}
	if !renamed {
		nf.Close()
		os.Remove(filepath.Join(l.dir, name)) //saga:errok — unreferenced, never adopted
		return err
	}
	l.nextSeg++
	// The old segments are now unreferenced; drop them.
	for i, old := range l.names {
		l.segs[i].Close()
		os.Remove(filepath.Join(l.dir, old)) //saga:errok — already unreferenced by the manifest
	}
	l.names = []string{name}
	l.segs = []*os.File{nf}
	l.sizes = []int64{size}
	l.offs = [][]int64{{0}}
	return err
}

// writeFrameLocked writes one frame holding what write writes to the empty
// file f, fsyncs f, and returns the frame's size.
func (l *RecordLog) writeFrameLocked(f *os.File, write func(io.Writer) error) (int64, error) {
	if l.bw == nil {
		l.bw = bufio.NewWriterSize(nil, rewriteBuffer)
	}
	fw := &frameWriter{f: f}
	l.bw.Reset(fw)
	hdr := triple.FrameHeader(0, 0) // the placeholder
	_, err := f.Write(hdr[:])
	if err == nil {
		if err = write(l.bw); err == nil {
			err = l.bw.Flush()
		}
	}
	if err == nil && fw.n > math.MaxUint32 {
		err = fmt.Errorf("%d bytes overflow the frame", fw.n)
	}
	if err == nil {
		hdr = triple.FrameHeader(uint32(fw.n), fw.crc)
		_, err = f.WriteAt(hdr[:], 0)
	}
	if err != nil {
		return 0, fmt.Errorf("disk: write compacted record: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("disk: sync compaction segment: %w", err)
	}
	return int64(len(hdr)) + fw.n, nil
}

// frameWriter passes a frame's payload through to f, keeping its length and
// running CRC for the header.
type frameWriter struct {
	f   *os.File
	n   int64
	crc uint32
}

func (w *frameWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	w.crc = triple.UpdateCRC(w.crc, p[:n])
	return n, err
}

// Segments returns the live segment file names, oldest first (for tests and
// recovery stats).
func (l *RecordLog) Segments() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.names...)
}

// Len implements storage.RecordLog.
func (l *RecordLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lenLocked()
}

func (l *RecordLog) lenLocked() int {
	n := 0
	for _, offs := range l.offs {
		n += len(offs)
	}
	return n
}

// Close implements storage.RecordLog.
func (l *RecordLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var firstErr error
	for _, f := range l.segs {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	l.segs = nil
	return firstErr
}
