package oplog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"saga/internal/storage/disk"
	"saga/internal/triple"
)

// openDisk builds a log over a disk record log rooted at dir.
func openDisk(t *testing.T, dir string) *Log {
	t.Helper()
	rec, err := disk.OpenRecordLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenStore(rec)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendRead(t *testing.T) {
	l := NewVolatile()
	for i := 0; i < 5; i++ {
		lsn, err := l.Append(Op{Kind: OpUpsert, Source: "src"})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if got := l.LastLSN(); got != 5 {
		t.Fatalf("LastLSN = %d, want 5", got)
	}
	ops := l.Read(2, 0)
	if len(ops) != 3 || ops[0].LSN != 3 || ops[2].LSN != 5 {
		t.Fatalf("Read(2) = %+v", ops)
	}
	if got := l.Read(2, 2); len(got) != 2 {
		t.Fatalf("Read with max = %d ops", len(got))
	}
	if got := l.Read(5, 0); got != nil {
		t.Fatalf("Read past end = %+v", got)
	}
}

func TestDurabilityAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(Op{Kind: OpUpsert, Source: "s", EntityIDs: []triple.EntityID{"kg:E1"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir)
	defer re.Close()
	if got := re.LastLSN(); got != 10 {
		t.Fatalf("recovered LastLSN = %d, want 10", got)
	}
	ops := re.Read(0, 0)
	if len(ops) != 10 || ops[9].EntityIDs[0] != "kg:E1" {
		t.Fatalf("recovered ops = %d", len(ops))
	}
	// Appends continue with the next LSN.
	lsn, err := re.Append(Op{Kind: OpCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("post-recovery lsn = %d, want 11", lsn)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Op{Kind: OpUpsert}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a crash mid-append: write garbage at the tail of the active
	// segment.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re := openDisk(t, dir)
	defer re.Close()
	if got := re.LastLSN(); got != 3 {
		t.Fatalf("LastLSN after torn tail = %d, want 3", got)
	}
	// The torn bytes must be gone so future appends stay readable.
	if _, err := re.Append(Op{Kind: OpUpsert}); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2 := openDisk(t, dir)
	defer re2.Close()
	if got := re2.LastLSN(); got != 4 {
		t.Fatalf("LastLSN after re-append = %d, want 4", got)
	}
}

// TestOpenStoreFailsOnUndecodableRecord: a record that passed its CRC but is
// not an op (here a hand-appended non-JSON record in the middle of the log)
// fails the open and leaves every record in place. Treating it as a torn tail
// would silently drop it and every acknowledged op after it.
func TestOpenStoreFailsOnUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := l.Append(Op{Kind: OpUpsert, Source: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := disk.OpenRecordLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	later, err := json.Marshal(Op{LSN: 3, Kind: OpUpsert, Source: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{[]byte("not json"), later} {
		if err := rec.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if rec, err = disk.OpenRecordLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(rec); err == nil {
		t.Fatal("OpenStore accepted a log with an undecodable record")
	}
	// OpenStore closed rec; the records are all still there.
	if rec, err = disk.OpenRecordLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Len(); got != 4 {
		t.Fatalf("record log holds %d records after the failed open, want 4", got)
	}
}

// TestCompaction exercises ReplaceRange: surviving ops keep their sparse
// LSNs, reads binary-search correctly past the gaps, the high-water mark is
// unchanged, and a durable log round-trips the compacted state.
func TestCompaction(t *testing.T) {
	run := func(t *testing.T, l *Log, reopen func() *Log) {
		for i := 0; i < 10; i++ {
			if _, err := l.Append(Op{Kind: OpUpsert, EntityIDs: []triple.EntityID{triple.EntityID("kg:E" + string(rune('0'+i)))}}); err != nil {
				t.Fatal(err)
			}
		}
		// Conflate ops 1..7 down to two survivors at their original LSNs.
		rewritten := []Op{
			{LSN: 3, Kind: OpUpsert, EntityIDs: []triple.EntityID{"kg:E2"}, Time: 1},
			{LSN: 7, Kind: OpUpsert, EntityIDs: []triple.EntityID{"kg:E6"}, Time: 1},
		}
		if err := l.ReplaceRange(7, rewritten); err != nil {
			t.Fatal(err)
		}
		if got := l.LastLSN(); got != 10 {
			t.Fatalf("LastLSN after compact = %d, want 10", got)
		}
		if got := l.Len(); got != 5 {
			t.Fatalf("Len after compact = %d, want 5", got)
		}
		ops := l.Read(0, 0)
		wantLSNs := []uint64{3, 7, 8, 9, 10}
		for i, w := range wantLSNs {
			if ops[i].LSN != w {
				t.Fatalf("ops[%d].LSN = %d, want %d", i, ops[i].LSN, w)
			}
		}
		// Reads relative to a sparse position: after=5 must return LSN 7+.
		if got := l.Read(5, 0); len(got) != 4 || got[0].LSN != 7 {
			t.Fatalf("Read(5) = %+v", got)
		}
		if got := l.OpsThrough(7); len(got) != 2 || got[1].LSN != 7 {
			t.Fatalf("OpsThrough(7) = %+v", got)
		}
		if got := l.PrefixLen(7); got != 2 {
			t.Fatalf("PrefixLen(7) = %d, want 2", got)
		}
		// New appends continue past the high-water mark.
		lsn, err := l.Append(Op{Kind: OpCheckpoint})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != 11 {
			t.Fatalf("post-compact lsn = %d, want 11", lsn)
		}
		if reopen != nil {
			l.Close()
			re := reopen()
			defer re.Close()
			if got := re.LastLSN(); got != 11 {
				t.Fatalf("reopened LastLSN = %d, want 11", got)
			}
			ops := re.Read(0, 0)
			if len(ops) != 6 || ops[0].LSN != 3 || ops[5].LSN != 11 {
				t.Fatalf("reopened ops = %+v", ops)
			}
		}
	}
	t.Run("volatile", func(t *testing.T) { run(t, NewVolatile(), nil) })
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		run(t, openDisk(t, dir), func() *Log { return openDisk(t, dir) })
	})
}

func TestReplaceRangeRejectsBadInput(t *testing.T) {
	l := NewVolatile()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(Op{Kind: OpUpsert}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.ReplaceRange(3, []Op{{LSN: 4, Kind: OpUpsert}}); err == nil {
		t.Fatal("ReplaceRange accepted an op past the watermark")
	}
	if err := l.ReplaceRange(3, []Op{{LSN: 2, Kind: OpUpsert}, {LSN: 1, Kind: OpUpsert}}); err == nil {
		t.Fatal("ReplaceRange accepted out-of-order ops")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	// Both modes must reject appends after Close: a memory log that kept
	// accepting them would silently diverge from a file log's behavior.
	t.Run("file", func(t *testing.T) {
		l := openDisk(t, t.TempDir())
		l.Close()
		if _, err := l.Append(Op{Kind: OpUpsert}); err == nil {
			t.Fatal("append after close succeeded")
		}
	})
	t.Run("memory", func(t *testing.T) {
		l := NewVolatile()
		l.Close()
		if _, err := l.Append(Op{Kind: OpUpsert}); err == nil {
			t.Fatal("append after close succeeded on memory log")
		}
	})
}

func TestCloseIdempotent(t *testing.T) {
	l := NewVolatile()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := NewVolatile()
	var wg sync.WaitGroup
	const writers, each = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(Op{Kind: OpUpsert}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := l.LastLSN(); got != writers*each {
		t.Fatalf("LastLSN = %d, want %d", got, writers*each)
	}
	ops := l.Read(0, 0)
	for i, op := range ops {
		if op.LSN != uint64(i+1) {
			t.Fatalf("ops out of order at %d: lsn %d", i, op.LSN)
		}
	}
}
