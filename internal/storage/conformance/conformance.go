// Package conformance is the shared contract test for the storage roles:
// every implementation of a role must pass the same suite, so the platform's
// correctness never depends on which medium holds its bytes. The suite covers
// round trips for every role, concurrent reader safety (meaningful under
// -race), and — for durable media — kill-and-reopen recovery with a torn
// final record plus a large-payload test asserting that payload bytes stay
// off the Go heap.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"saga/internal/storage"
)

// Suite runs the storage contract against one medium's stores. Each field
// opens a fresh store of its role rooted at dir, a directory the store may
// fill as it likes; for a durable medium, opening the same dir again recovers
// what the earlier store left there. A nil field means the medium lacks that
// role, and its subtests do not run.
type Suite struct {
	RecordLog func(dir string) (storage.RecordLog, error)
	BlobStore func(dir string) (storage.BlobStore, error)
	EntityKV  func(dir string) (storage.EntityKV, error)
	// Durable adds the reopen checks to the round trips and runs the crash
	// subtests.
	Durable bool
}

// mustOpen opens a store through one of the Suite's open functions.
func mustOpen[T any](t testing.TB, open func(string) (T, error), dir string) T {
	t.Helper()
	st, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// tearNewestFile simulates a crash mid-append: it truncates a few bytes off
// the most recently modified file under dir. Every durable role writes
// CRC-framed records, so this tears exactly the final record.
func tearNewestFile(t *testing.T, dir string) {
	t.Helper()
	var newest string
	var newestMod int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.Mode().IsRegular() || info.Size() == 0 {
			return nil
		}
		// Manifests are published by atomic rename, never torn by a crash
		// mid-append; tear the newest data file instead.
		if filepath.Base(path) == "MANIFEST" {
			return nil
		}
		if mod := info.ModTime().UnixNano(); newest == "" || mod >= newestMod {
			newest, newestMod = path, mod
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if newest == "" {
		t.Fatal("no file to tear under " + dir)
	}
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-3); err != nil {
		t.Fatal(err)
	}
}

// Run executes the contract for every role the medium has, as subtests.
func (s Suite) Run(t *testing.T) {
	if s.RecordLog != nil {
		t.Run("RecordLog", s.recordLog)
		t.Run("RecordLogCompact", s.recordLogCompact)
		t.Run("CheckpointsStreamed", s.checkpointsStreamed)
		if s.Durable {
			t.Run("RecordLogTornTail", s.recordLogTornTail)
			t.Run("RecordLogCompactCrash", s.recordLogCompactCrash)
			t.Run("CheckpointsCrash", s.checkpointsCrash)
		}
	}
	if s.BlobStore != nil {
		t.Run("BlobStore", s.blobStore)
		if s.Durable {
			t.Run("BlobStoreTornTail", s.blobStoreTornTail)
		}
	}
	if s.EntityKV != nil {
		t.Run("EntityKV", s.entityKV)
		if s.Durable {
			t.Run("EntityKVTornTail", s.entityKVTornTail)
			t.Run("EntityKVLargePayloadOffHeap", s.entityKVOffHeap)
		}
	}
}

// streamed is the payload checkpointsStreamed streams: 600 000 bytes written
// in odd-sized chunks, some far larger than any sane write buffer.
func streamed() (payload []byte, write func(io.Writer) error) {
	payload = make([]byte, 600_000)
	for i := range payload {
		payload[i] = byte(i*7 + i>>11)
	}
	chunks := []int{1, 70_001, 3, 131_077}
	return payload, func(w io.Writer) error {
		rest := payload
		for i := 0; len(rest) > 0; i++ {
			n := min(chunks[i%len(chunks)], len(rest))
			if _, err := w.Write(rest[:n]); err != nil {
				return err
			}
			rest = rest[n:]
		}
		return nil
	}
}

// writeString is a Compact write function that streams s in one write.
func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// fileNames lists the names of the files under dir, sorted.
func fileNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, ent := range ents {
		names[i] = ent.Name()
	}
	return names
}

// appendOld appends n records named prefix-00, prefix-01, ... and returns
// them.
func appendOld(t *testing.T, l storage.RecordLog, prefix string, n int) []string {
	t.Helper()
	old := make([]string, n)
	for i := range old {
		old[i] = fmt.Sprintf("%s-%02d", prefix, i)
		if err := l.Append([]byte(old[i])); err != nil {
			t.Fatal(err)
		}
	}
	return old
}

// recordLogCompact exercises the rewrite contract: every record gives way to
// the one record the write function streamed; appends continue after it; a
// log compacted again gives way again (its newest records included); and
// (durable media) the compacted state survives reopen.
func (s Suite) recordLogCompact(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	appendOld(t, l, "old", 10)
	if err := l.Compact(writeString("compacted-a")); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, l, []string{"compacted-a"})
	if err := l.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, l, []string{"compacted-a", "post-compact"})
	if err := l.Compact(writeString("compacted-b")); err != nil {
		t.Fatal(err)
	}
	want := []string{"compacted-b"}
	checkRecords(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Durable {
		re := mustOpen(t, s.RecordLog, dir)
		defer re.Close()
		checkRecords(t, re, want)
		if err := re.Append([]byte("after-reopen")); err != nil {
			t.Fatal(err)
		}
		checkRecords(t, re, append(want, "after-reopen"))
	}
}

// checkpointsStreamed exercises the streaming contract a checkpoint relies
// on (a checkpoint is the log's rewrite to one base record): a record
// written in odd-sized chunks, some far larger than any sane write buffer,
// reads back byte for byte; a write that fails part way returns its error
// and leaves every old record in place, in the session and (for durable
// media) after a reopen, with no file left behind.
func (s Suite) checkpointsStreamed(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	appendOld(t, l, "old", 10)
	payload, write := streamed()
	if err := l.Compact(write); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, l, []string{string(payload)})
	if err := l.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	want := []string{string(payload), "post-compact"}
	checkRecords(t, l, want)

	files := fileNames(t, dir)
	errWrite := errors.New("write failed part way")
	err := l.Compact(func(w io.Writer) error {
		if _, err := w.Write(payload[:100_003]); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("failed Compact returned %v, want %v", err, errWrite)
	}
	checkRecords(t, l, want)
	if got := fileNames(t, dir); !slices.Equal(got, files) {
		t.Fatalf("failed Compact left files %q, want %q", got, files)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Durable {
		re := mustOpen(t, s.RecordLog, dir)
		defer re.Close()
		checkRecords(t, re, want)
		if got := fileNames(t, dir); !slices.Equal(got, files) {
			t.Fatalf("reopen after a failed Compact left files %q, want %q", got, files)
		}
	}
}

// recordLogCompactCrash asserts a crash right after Compact returns (no
// Close) reopens to exactly the compacted log.
func (s Suite) recordLogCompactCrash(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	appendOld(t, l, "r", 8)
	if err := l.Compact(writeString("c-0")); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, s.RecordLog, dir)
	checkRecords(t, re, []string{"c-0"})
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	//saga:errok — l is the crash-simulated handle; re reopened its files, this close only releases descriptors
	l.Close()
}

// checkpointsCrash asserts a checkpoint's rewrite is atomic across a crash
// between the new segment's write and the manifest flip: the old files plus
// the new segment must reopen to the old records, with the new segment
// swept as an orphan.
func (s Suite) checkpointsCrash(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	old := appendOld(t, l, "r", 8)
	before := t.TempDir()
	copyFiles(t, dir, before)
	if err := l.Compact(writeString("c-0")); err != nil {
		t.Fatal(err)
	}
	// The crash before the flip: the old files, and every file the
	// compaction wrote that they do not name — the new segment.
	beforeFiles := fileNames(t, before)
	unflipped := t.TempDir()
	copyFiles(t, before, unflipped)
	for _, name := range fileNames(t, dir) {
		if !slices.Contains(beforeFiles, name) {
			copyFile(t, filepath.Join(dir, name), filepath.Join(unflipped, name))
		}
	}
	if got := fileNames(t, unflipped); len(got) <= len(beforeFiles) {
		t.Fatalf("Compact wrote no new file: %q", got)
	}
	//saga:errok — l is the crash-simulated handle; the crash is replayed on a copy, this close only releases descriptors
	l.Close()
	re := mustOpen(t, s.RecordLog, unflipped)
	checkRecords(t, re, old)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileNames(t, unflipped); !slices.Equal(got, beforeFiles) {
		t.Fatalf("reopen before the flip left files %q, want %q", got, beforeFiles)
	}
}

// copyFiles copies every file directly under src into dst.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	for _, name := range fileNames(t, src) {
		copyFile(t, filepath.Join(src, name), filepath.Join(dst, name))
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkRecords asserts l holds exactly want, through Replay and through
// Read of each position (and of no other).
func checkRecords(t *testing.T, l storage.RecordLog, want []string) {
	t.Helper()
	var got []string
	if err := l.Replay(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil || !slices.Equal(got, want) {
		t.Fatalf("replayed %q (%v), want %q", got, err, want)
	}
	for i := -1; i <= len(want); i++ {
		rec, err := l.Read(i)
		if in := i >= 0 && i < len(want); (err == nil) != in || in && string(rec) != want[i] {
			t.Fatalf("Read(%d) of %d records = %q, %v", i, len(want), rec, err)
		}
	}
}

func (s Suite) recordLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	const n = 20
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("record-%03d", i)
		// A record appended in parts is their concatenation.
		if err := l.Append([]byte(want[i][:7]), nil, []byte(want[i][7:])); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	checkRecords(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("late")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close not idempotent: %v", err)
	}
	if _, err := l.Read(0); err == nil {
		t.Fatal("read after close succeeded")
	}
	if s.Durable {
		re := mustOpen(t, s.RecordLog, dir)
		defer re.Close()
		if got := re.Len(); got != n {
			t.Fatalf("reopened Len = %d, want %d", got, n)
		}
		checkRecords(t, re, want)
	}
}

func (s Suite) recordLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestFile(t, dir)
	re := mustOpen(t, s.RecordLog, dir)
	defer re.Close()
	if got := re.Len(); got != 4 {
		t.Fatalf("Len after torn tail = %d, want 4", got)
	}
	// The log must accept appends after recovery and stay readable.
	if err := re.Append([]byte("r4-again")); err != nil {
		t.Fatal(err)
	}
	var last string
	if err := re.Replay(func(p []byte) error { last = string(p); return nil }); err != nil {
		t.Fatal(err)
	}
	if last != "r4-again" {
		t.Fatalf("last record = %q", last)
	}

	// A record the replay callback rejects is not a torn tail: it passed its
	// CRC, so it was acknowledged. Replay reports the callback's error and
	// the log keeps every record.
	rejected := errors.New("undecodable")
	if err := re.Replay(func(p []byte) error {
		if string(p) == "r3" {
			return rejected
		}
		return nil
	}); !errors.Is(err, rejected) {
		t.Fatalf("rejected replay error = %v, want the callback's", err)
	}
	if got := re.Len(); got != 5 {
		t.Fatalf("Len after rejected replay = %d, want 5", got)
	}
	if err := re.Replay(func(p []byte) error { last = string(p); return nil }); err != nil || last != "r4-again" {
		t.Fatalf("replay after a rejected one = %q, %v", last, err)
	}
}

func (s Suite) blobStore(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, s.BlobStore, dir)
	keys := make([]string, 10)
	for i := range keys {
		k, err := b.Stage([]byte(fmt.Sprintf("payload-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	if got := b.Len(); got != len(keys) {
		t.Fatalf("Len = %d, want %d", got, len(keys))
	}
	for i, k := range keys {
		got, ok := b.Get(k)
		if !ok || string(got) != fmt.Sprintf("payload-%03d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, got, ok)
		}
	}
	if _, ok := b.Get("staging/99999999"); ok {
		t.Fatal("phantom blob")
	}
	if err := b.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(keys[0]); ok {
		t.Fatal("deleted blob still readable")
	}
	if got := b.Len(); got != len(keys)-1 {
		t.Fatalf("Len after delete = %d, want %d", got, len(keys)-1)
	}

	// Concurrent readers while a writer stages (meaningful under -race).
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.Get(keys[1+i%(len(keys)-1)])
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := b.Stage([]byte("concurrent")); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Durable {
		re := mustOpen(t, s.BlobStore, dir)
		defer re.Close()
		got, ok := re.Get(keys[3])
		if !ok || string(got) != "payload-003" {
			t.Fatalf("reopened Get = %q, %v", got, ok)
		}
		if _, ok := re.Get(keys[0]); ok {
			t.Fatal("delete did not survive reopen")
		}
		// The key sequence must resume past retained blobs, never reuse.
		k, err := re.Stage([]byte("after-reopen"))
		if err != nil {
			t.Fatal(err)
		}
		for _, old := range keys {
			if k == old {
				t.Fatalf("reopened store reissued key %s", k)
			}
		}
	}
}

func (s Suite) blobStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	b := mustOpen(t, s.BlobStore, dir)
	keys := make([]string, 5)
	for i := range keys {
		var err error
		if keys[i], err = b.Stage([]byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestFile(t, dir)
	re := mustOpen(t, s.BlobStore, dir)
	defer re.Close()
	if _, ok := re.Get(keys[4]); ok {
		t.Fatal("torn final blob still readable")
	}
	for i := 0; i < 4; i++ {
		got, ok := re.Get(keys[i])
		if !ok || string(got) != fmt.Sprintf("blob-%d", i) {
			t.Fatalf("blob %d lost to tear: %q, %v", i, got, ok)
		}
	}
	if _, err := re.Stage([]byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
}

func (s Suite) entityKV(t *testing.T) {
	dir := t.TempDir()
	kv := mustOpen(t, s.EntityKV, dir)
	const n = 100
	for i := 0; i < n; i++ {
		if err := kv.Put(fmt.Sprintf("kg:E%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite must replace, not append a second live version.
	if err := kv.Put("kg:E0", []byte("v0-new")); err != nil {
		t.Fatal(err)
	}
	if got := kv.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	v, ok, err := kv.Get("kg:E0")
	if err != nil || !ok || string(v) != "v0-new" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, err := kv.Get("kg:nope"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("phantom key")
	}
	if ok, err := kv.Delete("kg:E1"); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Fatal("delete reported false")
	}
	if ok, err := kv.Delete("kg:E1"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("double delete reported true")
	}
	if kv.Bytes() <= 0 {
		t.Fatal("Bytes not tracked")
	}
	seen := 0
	if err := kv.Range(func(key string, value []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != n-1 {
		t.Fatalf("Range saw %d keys, want %d", seen, n-1)
	}

	// Concurrent readers racing a writer (meaningful under -race).
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, _, err := kv.Get(fmt.Sprintf("kg:E%d", 2+(r*100+i)%(n-2))); err != nil {
					t.Error(err)
				}
			}
		}(r)
	}
	for i := 0; i < 50; i++ {
		if err := kv.Put(fmt.Sprintf("kg:W%d", i), []byte("w")); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()

	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Durable {
		re := mustOpen(t, s.EntityKV, dir)
		defer re.Close()
		v, ok, err := re.Get("kg:E0")
		if err != nil || !ok || string(v) != "v0-new" {
			t.Fatalf("reopened Get = %q, %v, %v", v, ok, err)
		}
		if _, ok, err := re.Get("kg:E1"); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatal("delete did not survive reopen")
		}
	}
}

func (s Suite) entityKVTornTail(t *testing.T) {
	dir := t.TempDir()
	kv := mustOpen(t, s.EntityKV, dir)
	for i := 0; i < 5; i++ {
		if err := kv.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestFile(t, dir)
	re := mustOpen(t, s.EntityKV, dir)
	defer re.Close()
	if _, ok, err := re.Get("k4"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("torn final record still readable")
	}
	if got := re.Len(); got != 4 {
		t.Fatalf("Len after torn tail = %d, want 4", got)
	}
	// Re-putting the lost key (what oplog replay does) must heal the store.
	if err := re.Put("k4", []byte("v4")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := re.Get("k4")
	if err != nil || !ok || string(v) != "v4" {
		t.Fatalf("healed Get = %q, %v, %v", v, ok, err)
	}
}

// entityKVOffHeap is the RAM-gating acceptance test: a payload volume far
// larger than what the Go heap should retain flows through the store, and
// the heap's growth must stay a small fraction of it — the payload bytes
// belong to the data file and the page cache, with only keys and locations
// on the heap.
func (s Suite) entityKVOffHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("large-payload test skipped in -short mode")
	}
	dir := t.TempDir()
	kv := mustOpen(t, s.EntityKV, dir)
	defer kv.Close()

	const valSize = 256 << 10 // 256 KiB per entity payload
	const count = 256         // 64 MiB total
	val := bytes.Repeat([]byte{0xa5}, valSize)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for i := 0; i < count; i++ {
		if err := kv.Put(fmt.Sprintf("kg:big%04d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a spread of keys so the read path has run too (reads copy one
	// value at a time; they must not pin the whole mapping into the heap).
	for i := 0; i < count; i += 16 {
		v, ok, err := kv.Get(fmt.Sprintf("kg:big%04d", i))
		if err != nil || !ok || len(v) != valSize {
			t.Fatalf("Get big%04d = %d bytes, %v, %v", i, len(v), ok, err)
		}
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	total := int64(valSize) * count
	var growth int64
	if after.HeapAlloc > before.HeapAlloc {
		growth = int64(after.HeapAlloc - before.HeapAlloc)
	}
	if growth > total/4 {
		t.Fatalf("heap grew %d bytes while storing %d payload bytes; payloads are on the heap, not disk", growth, total)
	}
	if kv.Bytes() != total {
		t.Fatalf("Bytes = %d, want %d", kv.Bytes(), total)
	}
}
