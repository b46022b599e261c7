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
	"os"
	"path/filepath"
	"runtime"
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
	RecordLog   func(dir string) (storage.RecordLog, error)
	BlobStore   func(dir string) (storage.BlobStore, error)
	EntityKV    func(dir string) (storage.EntityKV, error)
	Checkpoints func(dir string) (storage.Checkpointer, error)
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
		if s.Durable {
			t.Run("RecordLogTornTail", s.recordLogTornTail)
			t.Run("RecordLogCompactCrash", s.recordLogCompactCrash)
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
	if s.Checkpoints != nil {
		t.Run("Checkpoints", s.checkpoints)
		if s.Durable {
			t.Run("CheckpointsCrash", s.checkpointsCrash)
		}
	}
}

// recordLogCompact exercises the atomic-prefix-replacement contract: the
// prefix shrinks to the replacement, the suffix survives unchanged, appends
// continue, and (durable media) the compacted state survives reopen.
func (s Suite) recordLogCompact(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("old-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(7, [][]byte{[]byte("compacted-a"), []byte("compacted-b")}); err != nil {
		t.Fatal(err)
	}
	want := []string{"compacted-a", "compacted-b", "old-07", "old-08", "old-09"}
	check := func(l storage.RecordLog, want []string) {
		t.Helper()
		if got := l.Len(); got != len(want) {
			t.Fatalf("Len = %d, want %d", got, len(want))
		}
		var got []string
		if err := l.Replay(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
	}
	check(l, want)
	// Appends continue after a compaction.
	if err := l.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	// Compacting everything (tombstone elision can empty a prefix).
	if err := l.Compact(6, nil); err != nil {
		t.Fatal(err)
	}
	if got := l.Len(); got != 0 {
		t.Fatalf("Len after full compact = %d, want 0", got)
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(99, nil); err == nil {
		t.Fatal("out-of-range drop accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Durable {
		re := mustOpen(t, s.RecordLog, dir)
		defer re.Close()
		check(re, []string{"fresh"})
		if err := re.Append([]byte("after-reopen")); err != nil {
			t.Fatal(err)
		}
	}
}

// recordLogCompactCrash asserts compaction atomicity across a simulated
// crash: copying the directory at an arbitrary moment after Compact returns
// and reopening the copy must yield exactly the compacted log — and tearing
// the newest file still leaves a log that opens (the swap is manifest-
// guarded, so damage degrades to torn-tail recovery, never a half-swapped
// prefix).
func (s Suite) recordLogCompactCrash(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	for i := 0; i < 8; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(5, [][]byte{[]byte("c-0")}); err != nil {
		t.Fatal(err)
	}
	// Crash immediately after compact: no Close, reopen the same dir.
	re := mustOpen(t, s.RecordLog, dir)
	var got []string
	if err := re.Replay(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"c-0", "r-05", "r-06", "r-07"}
	if len(got) != len(want) {
		t.Fatalf("reopened records = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	//saga:errok — l is the crash-simulated handle; re rewrote its files, this close only releases descriptors
	l.Close()
}

// checkpoints exercises the Checkpointer round trip: Latest returns the
// newest Save; durable media survive reopen.
func (s Suite) checkpoints(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, s.Checkpoints, dir)
	if _, _, ok := c.Latest(); ok {
		t.Fatal("empty store reported a checkpoint")
	}
	if err := c.Save(10, []byte("snap-10")); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(25, []byte("snap-25")); err != nil {
		t.Fatal(err)
	}
	lsn, payload, ok := c.Latest()
	if !ok || lsn != 25 || string(payload) != "snap-25" {
		t.Fatalf("Latest = %d, %q, %v", lsn, payload, ok)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Durable {
		re := mustOpen(t, s.Checkpoints, dir)
		defer re.Close()
		lsn, payload, ok := re.Latest()
		if !ok || lsn != 25 || string(payload) != "snap-25" {
			t.Fatalf("reopened Latest = %d, %q, %v", lsn, payload, ok)
		}
	}
}

// checkpointsCrash damages the newest checkpoint file and asserts Latest
// falls back to the previous intact one instead of failing or returning
// corrupt bytes.
func (s Suite) checkpointsCrash(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, s.Checkpoints, dir)
	if err := c.Save(10, []byte("snap-10")); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(25, []byte("snap-25")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestFile(t, dir)
	re := mustOpen(t, s.Checkpoints, dir)
	defer re.Close()
	lsn, payload, ok := re.Latest()
	if !ok || lsn != 10 || string(payload) != "snap-10" {
		t.Fatalf("Latest after damage = %d, %q, %v (want fallback to 10)", lsn, payload, ok)
	}
}

func (s Suite) recordLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, s.RecordLog, dir)
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	var replayed []string
	if err := l.Replay(func(p []byte) error {
		replayed = append(replayed, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != n || replayed[0] != "record-000" || replayed[n-1] != fmt.Sprintf("record-%03d", n-1) {
		t.Fatalf("replayed %d records, first %q", len(replayed), replayed[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("late")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close not idempotent: %v", err)
	}
	if s.Durable {
		re := mustOpen(t, s.RecordLog, dir)
		defer re.Close()
		if got := re.Len(); got != n {
			t.Fatalf("reopened Len = %d, want %d", got, n)
		}
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
