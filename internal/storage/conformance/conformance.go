// Package conformance is the shared contract test for storage backends:
// every backend registered with the storage package must pass the same
// suite, so the platform's correctness never depends on which backend is
// resolved. The suite covers round trips for every role, concurrent
// reader safety (meaningful under -race), and — for durable backends —
// kill-and-reopen recovery with a torn final record plus a large-payload
// test asserting that payload bytes stay off the Go heap.
package conformance

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"saga/internal/storage"
	"saga/internal/store/textindex"
	"saga/internal/store/vectordb"
)

// Suite runs the backend contract against one named backend.
type Suite struct {
	// Backend is the registered backend name ("memory", "disk").
	Backend string
}

// open resolves a fresh handle rooted at dir.
func (s Suite) open(t testing.TB, dir string) storage.Handle {
	t.Helper()
	h, err := storage.Resolve(s.Backend, storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return h
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

// Run executes the full contract as subtests.
func (s Suite) Run(t *testing.T) {
	h, err := storage.Resolve(s.Backend, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durable := h.Durable()
	t.Run("RecordLog", func(t *testing.T) { s.recordLog(t, durable) })
	t.Run("RecordLogCompact", func(t *testing.T) { s.recordLogCompact(t, durable) })
	t.Run("BlobStore", func(t *testing.T) { s.blobStore(t, durable) })
	t.Run("EntityKV", func(t *testing.T) { s.entityKV(t, durable) })
	t.Run("Postings", postings)
	t.Run("Vectors", vectors)
	t.Run("Checkpoints", func(t *testing.T) { s.checkpoints(t, durable) })
	if durable {
		t.Run("RecordLogTornTail", func(t *testing.T) { s.recordLogTornTail(t) })
		t.Run("RecordLogCompactCrash", func(t *testing.T) { s.recordLogCompactCrash(t) })
		t.Run("BlobStoreTornTail", func(t *testing.T) { s.blobStoreTornTail(t) })
		t.Run("EntityKVTornTail", func(t *testing.T) { s.entityKVTornTail(t) })
		t.Run("EntityKVLargePayloadOffHeap", func(t *testing.T) { s.entityKVOffHeap(t) })
		t.Run("CheckpointsCrash", func(t *testing.T) { s.checkpointsCrash(t) })
	}
}

// recordLogCompact exercises the atomic-prefix-replacement contract: the
// prefix shrinks to the replacement, the suffix survives unchanged, appends
// continue, and (durable backends) the compacted state survives reopen.
func (s Suite) recordLogCompact(t *testing.T, durable bool) {
	dir := t.TempDir()
	l, err := s.open(t, dir).RecordLog()
	if err != nil {
		t.Fatal(err)
	}
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
	if durable {
		re, err := s.open(t, dir).RecordLog()
		if err != nil {
			t.Fatal(err)
		}
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
	l, err := s.open(t, dir).RecordLog()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(5, [][]byte{[]byte("c-0")}); err != nil {
		t.Fatal(err)
	}
	// Crash immediately after compact: no Close, reopen the same dir.
	re, err := s.open(t, dir).RecordLog()
	if err != nil {
		t.Fatal(err)
	}
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
// newest Save; durable backends survive reopen.
func (s Suite) checkpoints(t *testing.T, durable bool) {
	dir := t.TempDir()
	c, err := s.open(t, dir).Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
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
	if durable {
		re, err := s.open(t, dir).Checkpoints()
		if err != nil {
			t.Fatal(err)
		}
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
	c, err := s.open(t, dir).Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
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
	re, err := s.open(t, dir).Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	lsn, payload, ok := re.Latest()
	if !ok || lsn != 10 || string(payload) != "snap-10" {
		t.Fatalf("Latest after damage = %d, %q, %v (want fallback to 10)", lsn, payload, ok)
	}
}

func (s Suite) recordLog(t *testing.T, durable bool) {
	dir := t.TempDir()
	l, err := s.open(t, dir).RecordLog()
	if err != nil {
		t.Fatal(err)
	}
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
	if durable {
		re, err := s.open(t, dir).RecordLog()
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := re.Len(); got != n {
			t.Fatalf("reopened Len = %d, want %d", got, n)
		}
	}
}

func (s Suite) recordLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := s.open(t, dir).RecordLog()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestFile(t, dir)
	re, err := s.open(t, dir).RecordLog()
	if err != nil {
		t.Fatal(err)
	}
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

	// A record the replay callback rejects is a torn tail too: the log
	// truncates it and everything after.
	if err := re.Replay(func(p []byte) error {
		if string(p) == "r3" {
			return fmt.Errorf("undecodable")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := re.Len(); got != 3 {
		t.Fatalf("Len after rejected replay = %d, want 3", got)
	}
}

func (s Suite) blobStore(t *testing.T, durable bool) {
	dir := t.TempDir()
	b, err := s.open(t, dir).BlobStore()
	if err != nil {
		t.Fatal(err)
	}
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
	if durable {
		re, err := s.open(t, dir).BlobStore()
		if err != nil {
			t.Fatal(err)
		}
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
	b, err := s.open(t, dir).BlobStore()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 5)
	for i := range keys {
		if keys[i], err = b.Stage([]byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestFile(t, dir)
	re, err := s.open(t, dir).BlobStore()
	if err != nil {
		t.Fatal(err)
	}
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

func (s Suite) entityKV(t *testing.T, durable bool) {
	dir := t.TempDir()
	kv, err := s.open(t, dir).EntityKV()
	if err != nil {
		t.Fatal(err)
	}
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
	vals, err := kv.MultiGet([]string{"kg:E1", "kg:nope", "kg:E2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || string(vals[0]) != "v1" || vals[1] != nil || string(vals[2]) != "v2" {
		t.Fatalf("MultiGet = %q", vals)
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
				if i%10 == 0 {
					if _, err := kv.MultiGet([]string{"kg:E2", "kg:E3", "kg:E4"}); err != nil {
						t.Error(err)
					}
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
	if durable {
		re, err := s.open(t, dir).EntityKV()
		if err != nil {
			t.Fatal(err)
		}
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
	kv, err := s.open(t, dir).EntityKV()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := kv.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	tearNewestFile(t, dir)
	re, err := s.open(t, dir).EntityKV()
	if err != nil {
		t.Fatal(err)
	}
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
	kv, err := s.open(t, dir).EntityKV()
	if err != nil {
		t.Fatal(err)
	}
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

// Postings and vectors are not backend roles: on every backend the live
// store serves text and vector search from the in-process textindex and
// vectordb. postings and vectors pin the contract the live store relies on
// from them, whichever backend is resolved.

// bm25 is the single-term BM25 score of a document at the index defaults
// (k1 = 1.2, b = 0.75), before the boost.
func bm25(tf, docLen, df, docs, totalLen int) float64 {
	const k1, b = 1.2, 0.75
	idf := math.Log(1 + (float64(docs)-float64(df)+0.5)/(float64(df)+0.5))
	avgLen := float64(totalLen) / float64(docs)
	return idf * float64(tf) * (k1 + 1) / (float64(tf) + k1*(1-b+b*float64(docLen)/avgLen))
}

// checkScores asserts hits are exactly want's IDs, in order, with scores
// equal to want's up to float rounding.
func checkScores(t *testing.T, label string, hits []textindex.Hit, want []textindex.Hit) {
	t.Helper()
	if len(hits) != len(want) {
		t.Fatalf("%s: hits = %v, want %v", label, hits, want)
	}
	for i := range want {
		if hits[i].ID != want[i].ID || math.Abs(hits[i].Score-want[i].Score) > 1e-12*want[i].Score {
			t.Fatalf("%s: hits = %v, want %v", label, hits, want)
		}
	}
}

func postings(t *testing.T) {
	ix := textindex.New()
	ix.Put(textindex.Doc{ID: "d1", Text: "alpha alpha beta"})
	ix.Put(textindex.Doc{ID: "d2", Text: "beta beta beta beta", Boost: 2})
	if got := ix.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	// Both documents post "beta"; the scores pin each document's length,
	// the total length (7) and the boosts (a zero boost defaults to 1).
	checkScores(t, "Search(beta)", ix.Search("beta", 5), []textindex.Hit{
		{ID: "d2", Score: 2 * bm25(4, 4, 2, 2, 7)},
		{ID: "d1", Score: bm25(1, 3, 2, 2, 7)},
	})
	// Put replaces: d1's old terms must vanish from the postings.
	ix.Put(textindex.Doc{ID: "d1", Text: "gamma"})
	if hits := ix.Search("alpha", 5); len(hits) != 0 {
		t.Fatalf("stale posting survived replace: %v", hits)
	}
	// The total length drops to 5 with d1's replacement.
	checkScores(t, "Search(gamma)", ix.Search("gamma", 5), []textindex.Hit{
		{ID: "d1", Score: bm25(1, 1, 1, 2, 5)},
	})
	if !ix.Delete("d2") {
		t.Fatal("delete reported false")
	}
	if ix.Delete("d2") {
		t.Fatal("double delete reported true")
	}
	if got := ix.Len(); got != 1 {
		t.Fatalf("Len after delete = %d, want 1", got)
	}
}

func vectors(t *testing.T) {
	db, err := vectordb.New(vectordb.Options{Dim: 2, LSHTables: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("v1", []float64{1, 0}, map[string]string{"type": "human"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("v1", []float64{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got := db.Get("v1"); len(got) != 2 || got[1] != 1 {
		t.Fatalf("Get after replace = %v", got)
	}
	if err := db.Put("v2", []float64{1, 1}, map[string]string{"type": "song"}); err != nil {
		t.Fatal(err)
	}
	if got := db.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if hits, err := db.Search([]float64{1, 1}, 5, vectordb.AttrEquals("type", "song")); err != nil || len(hits) != 1 || hits[0].ID != "v2" {
		t.Fatalf("Search(type=song) = %v, %v", hits, err)
	}
	// Replacing without attributes drops the old ones.
	if hits, err := db.Search([]float64{0, 1}, 5, vectordb.AttrEquals("type", "human")); err != nil || len(hits) != 0 {
		t.Fatalf("replaced attributes survived: %v, %v", hits, err)
	}
	if hits, err := db.Search([]float64{1, 0}, 5, nil); err != nil || len(hits) != 2 {
		t.Fatalf("unfiltered Search saw %v, %v", hits, err)
	}
	// The replace reindexed v1: its new vector shares every bucket with an
	// identical query.
	if hits, err := db.SearchANN([]float64{0, 1}, 1, nil); err != nil || len(hits) != 1 || hits[0].ID != "v1" {
		t.Fatalf("SearchANN after replace = %v, %v", hits, err)
	}
	if !db.Delete("v1") {
		t.Fatal("delete reported false")
	}
	if db.Delete("v1") {
		t.Fatal("double delete reported true")
	}
	if db.Get("v1") != nil || db.Len() != 1 {
		t.Fatalf("after delete: Get = %v, Len = %d", db.Get("v1"), db.Len())
	}
}
