package oplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"saga/internal/pmap"
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
	// Each op and its payload read back from its record, the first op's
	// header (held as its record alone) included.
	for i, op := range ops {
		if loaded, got, err := re.Load(op.LSN); err != nil || !bytes.Equal(got, frames(i)) || len(loaded.EntityIDs) != 1 || loaded.EntityIDs[0] != "kg:E1" {
			t.Fatalf("lsn %d loads %+v with payload %q, %v; want %q", op.LSN, loaded, got, err, frames(i))
		}
	}
	if lsn, n := re.Base(); lsn != 1 || n != 1 {
		t.Fatalf("Base = lsn %d, %d entities; want lsn 1, 1", lsn, n)
	}
	if _, _, err := re.Load(11); err == nil {
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
// not an op (here a hand-appended record whose header's entity count runs
// past its end, in the middle of the log) fails the open and leaves every record in place.
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
	later := AppendHeader(nil, Op{LSN: 3, Kind: OpUpsert, Source: "s"})
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
	if _, err := OpenStore(rec); err == nil || !strings.Contains(err.Error(), "op record of format 2") {
		t.Fatalf("OpenStore of a JSON-only log = %v, want an error naming the record format", err)
	}
	if after := snapshotDir(t, dir); after != before {
		t.Fatalf("a refused open changed the log's files:\nbefore %s\nafter  %s", before, after)
	}
}

// TestOpenStoreRefusesFormat1Records: a log of format-1 records (the version
// byte 1, a uvarint-sized JSON header, the frames) fails to open with an
// error naming both formats, and every file stays as it was.
func TestOpenStoreRefusesFormat1Records(t *testing.T) {
	dir := t.TempDir()
	rec, err := disk.OpenRecordLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, hdr := range []string{
		`{"lsn":1,"kind":"upsert","entity_ids":["kg:E1"],"links":{"s:1":"kg:E1"}}`,
		`{"lsn":2,"kind":"upsert","deletes":["kg:E1"]}`,
	} {
		r := append(binary.AppendUvarint([]byte{1}, uint64(len(hdr))), hdr...)
		if err := rec.Append(r, frames(i)); err != nil {
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
	_, err = OpenStore(rec)
	if err == nil || !strings.Contains(err.Error(), `op record of format 2: version byte "\x01"`) {
		t.Fatalf("OpenStore of a format-1 log = %v, want an error naming formats 1 and 2", err)
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

// writeFrames returns a frames function that writes frames(i).
func writeFrames(i int) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(frames(i))
		return err
	}
}

// baseOf returns op as a base whose payload is frames.
func baseOf(op Op, frames func(io.Writer) error) Base {
	b := Base{LSN: op.LSN, N: len(op.EntityIDs), IDs: slices.Values(op.EntityIDs), Frames: frames}
	o := new(pmap.Owner)
	for src, tgt := range op.Links {
		b.Links.Set(o, src, tgt)
	}
	return b
}

// TestCompaction exercises Compact: every op gives way to the base at the
// last LSN, whose payload is what its frames function wrote; the high-water
// mark is unchanged, reads find the base (held as its LSN alone, its header
// loaded from its record) and the ops appended after it, a log already one
// op at its head is left alone, and a durable log round-trips the compacted
// state.
func TestCompaction(t *testing.T) {
	run := func(t *testing.T, l *Log, reopen func() *Log) {
		for i := 0; i < 10; i++ {
			if _, err := l.Append(Op{Kind: OpUpsert, EntityIDs: []triple.EntityID{triple.EntityID("kg:E" + string(rune('0'+i)))}}, frames(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		base := Op{LSN: 10, Kind: OpUpsert, EntityIDs: []triple.EntityID{"kg:E2", "kg:E6"},
			Links: map[triple.EntityID]triple.EntityID{"s:1": "kg:E2", "s:0": "kg:E6"}}
		if err := l.Compact(baseOf(base, writeFrames(99))); err != nil {
			t.Fatal(err)
		}
		check := func(l *Log, want []Op) {
			t.Helper()
			held := append([]Op{{LSN: want[0].LSN, Kind: OpUpsert}}, want[1:]...)
			if got := l.Read(0, 0); !reflect.DeepEqual(got, held) {
				t.Fatalf("ops = %+v, want %+v", got, held)
			}
			if lsn, n := l.Base(); lsn != base.LSN || n != len(base.EntityIDs) {
				t.Fatalf("Base = lsn %d, %d entities; want lsn %d, %d", lsn, n, base.LSN, len(base.EntityIDs))
			}
			for i, op := range want {
				frame := 99
				if i > 0 {
					frame = int(op.LSN)
				}
				if got, payload, err := l.Load(op.LSN); err != nil || !reflect.DeepEqual(got, op) || !bytes.Equal(payload, frames(frame)) {
					t.Fatalf("lsn %d loads %+v with payload %q, %v; want %+v with %q", op.LSN, got, payload, err, op, frames(frame))
				}
			}
		}
		check(l, []Op{base})
		if got := l.LastLSN(); got != 10 {
			t.Fatalf("LastLSN after compact = %d, want 10", got)
		}
		// Already one op at the head: nothing to conflate, nothing written.
		if err := l.Compact(baseOf(Op{LSN: 10}, writeFrames(1))); err != nil {
			t.Fatal(err)
		}
		check(l, []Op{base})
		// New appends continue past the high-water mark.
		lsn, err := l.Append(Op{Kind: OpUpsert}, frames(11))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != 11 {
			t.Fatalf("post-compact lsn = %d, want 11", lsn)
		}
		want := []Op{base, {LSN: 11, Kind: OpUpsert}}
		check(l, want)
		if got := l.Read(10, 0); len(got) != 1 || got[0].LSN != 11 {
			t.Fatalf("Read(10) = %+v", got)
		}
		if reopen != nil {
			l.Close()
			re := reopen()
			defer re.Close()
			if got := re.LastLSN(); got != 11 {
				t.Fatalf("reopened LastLSN = %d, want 11", got)
			}
			check(re, want)
		}
	}
	t.Run("volatile", func(t *testing.T) { run(t, NewVolatile(), nil) })
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		run(t, openDisk(t, dir), func() *Log { return openDisk(t, dir) })
	})
}

// TestCompactRejectsBadInput: a base at any LSN but the last, one whose IDs
// fall short of its entity count, a frames function that fails and a closed
// log are refused, and a refused Compact leaves every op and payload as it
// was.
func TestCompactRejectsBadInput(t *testing.T) {
	run := func(t *testing.T, l *Log) {
		for i := 0; i < 5; i++ {
			if _, err := l.Append(Op{Kind: OpUpsert}, frames(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		before := l.Read(0, 0)
		errFrames := errors.New("frames failed")
		short := baseOf(Op{LSN: 5, EntityIDs: []triple.EntityID{"kg:A", "kg:B"}}, writeFrames(0))
		short.N = 3
		for name, b := range map[string]Base{
			"below the head": baseOf(Op{LSN: 4}, writeFrames(0)),
			"past the head":  baseOf(Op{LSN: 6}, writeFrames(0)),
			"IDs short of N": short,
			"failed frames": baseOf(Op{LSN: 5}, func(w io.Writer) error {
				if _, err := w.Write(frames(7)); err != nil {
					return err
				}
				return errFrames
			}),
		} {
			if err := l.Compact(b); err == nil {
				t.Fatalf("%s: Compact succeeded", name)
			}
			if got := l.Read(0, 0); !reflect.DeepEqual(got, before) {
				t.Fatalf("%s: a refused Compact left %+v", name, got)
			}
			for _, op := range before {
				if _, got, err := l.Load(op.LSN); err != nil || !bytes.Equal(got, frames(int(op.LSN))) {
					t.Fatalf("%s: payload of lsn %d = %q, %v", name, op.LSN, got, err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(baseOf(Op{LSN: 5}, writeFrames(0))); err == nil {
			t.Fatal("Compact of a closed log succeeded")
		}
	}
	t.Run("volatile", func(t *testing.T) { run(t, NewVolatile()) })
	t.Run("disk", func(t *testing.T) { run(t, openDisk(t, t.TempDir())) })
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
