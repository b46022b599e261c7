package oplog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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

// frames returns a stand-in payload for op i: bytes that differ per op (the
// log does not look inside them).
func frames(i int) []byte { return []byte(strings.Repeat(string(rune('a'+i%26)), 10+i)) }

func TestDurabilityAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(Op{Kind: OpUpsert, Source: "s", EntityIDs: []triple.EntityID{"kg:E1"}}, frames(i)); err != nil {
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
	// Each op's payload reads back from its record.
	for i, op := range ops {
		if got, err := re.Payload(op.LSN); err != nil || !bytes.Equal(got, frames(i)) {
			t.Fatalf("payload of lsn %d = %q, %v; want %q", op.LSN, got, err, frames(i))
		}
	}
	if _, err := re.Payload(11); err == nil {
		t.Fatal("payload of an absent lsn read")
	}
	// Appends continue with the next LSN.
	lsn, err := re.Append(Op{Kind: OpUpsert})
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
// not an op (here a hand-appended record whose header is not JSON, in the
// middle of the log) fails the open and leaves every record in place.
// Treating it as a torn tail would silently drop it and every acknowledged
// op after it.
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
	later, err := Record(Op{LSN: 3, Kind: OpUpsert, Source: "s"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{append([]byte{recordVersion, 8}, "not json"...), later} {
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

// TestOpenStoreRefusesJSONOnlyRecords: a log written before payloads rode
// in its records holds bare JSON ops. Opening it fails with an error that
// names the record format, and every record stays as it was.
func TestOpenStoreRefusesJSONOnlyRecords(t *testing.T) {
	dir := t.TempDir()
	rec, err := disk.OpenRecordLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := [][]byte{
		[]byte(`{"lsn":1,"kind":"upsert","staging_key":"staging/00000001","entity_ids":["kg:E1"],"time":7}`),
		[]byte(`{"lsn":2,"kind":"checkpoint","source":"construction","time":8}`),
	}
	for _, r := range old {
		if err := rec.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)
	if rec, err = disk.OpenRecordLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(rec); err == nil || !strings.Contains(err.Error(), "op record of format 1") {
		t.Fatalf("OpenStore of a JSON-only log = %v, want an error naming the record format", err)
	}
	if after := snapshotDir(t, dir); after != before {
		t.Fatalf("a refused open changed the log's files:\nbefore %s\nafter  %s", before, after)
	}
}

// snapshotDir renders every file under dir with its contents.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(ent.Name() + "=" + string(data) + ";")
	}
	return b.String()
}

// records builds each op's record with frames(op.LSN) as its payload.
func records(t *testing.T, ops []Op) [][]byte {
	t.Helper()
	recs := make([][]byte, len(ops))
	for i, op := range ops {
		rec, err := Record(op, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = append(rec, frames(int(op.LSN))...)
	}
	return recs
}

// TestCompaction exercises ReplaceRange: surviving ops keep their sparse
// LSNs, reads binary-search correctly past the gaps, the high-water mark is
// unchanged, every op's payload is the one its record carries, and a
// durable log round-trips the compacted state.
func TestCompaction(t *testing.T) {
	checkPayloads := func(t *testing.T, l *Log) {
		t.Helper()
		for _, op := range l.Read(0, 0) {
			if got, err := l.Payload(op.LSN); err != nil || !bytes.Equal(got, frames(int(op.LSN))) {
				t.Fatalf("payload of lsn %d = %q, %v; want %q", op.LSN, got, err, frames(int(op.LSN)))
			}
		}
	}
	run := func(t *testing.T, l *Log, reopen func() *Log) {
		for i := 0; i < 10; i++ {
			if _, err := l.Append(Op{Kind: OpUpsert, EntityIDs: []triple.EntityID{triple.EntityID("kg:E" + string(rune('0'+i)))}}, frames(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		// Conflate ops 1..7 down to two survivors at their original LSNs.
		rewritten := []Op{
			{LSN: 3, Kind: OpUpsert, EntityIDs: []triple.EntityID{"kg:E2"}},
			{LSN: 7, Kind: OpUpsert, EntityIDs: []triple.EntityID{"kg:E6"}},
		}
		if err := l.ReplaceRange(7, rewritten, records(t, rewritten)); err != nil {
			t.Fatal(err)
		}
		checkPayloads(t, l)
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
		lsn, err := l.Append(Op{Kind: OpUpsert}, frames(11))
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
			checkPayloads(t, re)
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
	for _, bad := range [][]Op{
		{{LSN: 4, Kind: OpUpsert}},                           // past the watermark
		{{LSN: 2, Kind: OpUpsert}, {LSN: 1, Kind: OpUpsert}}, // out of order
	} {
		if err := l.ReplaceRange(3, bad, records(t, bad)); err == nil {
			t.Fatalf("ReplaceRange accepted %+v", bad)
		}
	}
	ok := []Op{{LSN: 2, Kind: OpUpsert}}
	if err := l.ReplaceRange(3, ok, nil); err == nil {
		t.Fatal("ReplaceRange accepted ops without their records")
	}
	if l.Len() != 5 {
		t.Fatalf("a refused ReplaceRange left %d ops, want 5", l.Len())
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
