package disk

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRecordLogReadAcrossSegments: with segments of a few records each, Read
// finds every record by its kept offset — after appends, after a compaction
// to one record and appends that rotate past it again, and after a reopen —
// and a record whose bytes changed on disk fails its CRC instead of reading
// back wrong.
func TestRecordLogReadAcrossSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	l, err := OpenRecordLog(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 20; i++ {
		want = append(want, fmt.Sprintf("record-%02d", i))
		if err := l.Append([]byte(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	check := func(l *RecordLog, want []string) {
		t.Helper()
		if l.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(want))
		}
		for i, w := range want {
			if got, err := l.Read(i); err != nil || string(got) != w {
				t.Fatalf("Read(%d) = %q, %v; want %q", i, got, err, w)
			}
		}
	}
	if len(l.Segments()) < 3 {
		t.Fatalf("%d segments: the test needs the records spread over several", len(l.Segments()))
	}
	check(l, want)
	if err := l.Compact(func(w io.Writer) error {
		_, err := io.WriteString(w, "compacted")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want = []string{"compacted"}
	check(l, want)
	for i := 0; i < 20; i++ {
		want = append(want, fmt.Sprintf("after-%02d", i))
		if err := l.Append([]byte(want[len(want)-1])); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.Segments()) < 3 {
		t.Fatalf("%d segments after the compaction: the appends should rotate past it", len(l.Segments()))
	}
	check(l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = OpenRecordLog(dir, 64); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check(l, want)

	// Flip the last byte of the newest segment: the last record's payload.
	seg := filepath.Join(dir, l.Segments()[len(l.Segments())-1])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := l.Read(len(want) - 1); err == nil {
		t.Fatalf("Read of a damaged record = %q, want a checksum error", got)
	}
}

// TestRecordLogAdoptsSegmentAfterManifestRename: the manifest's rename is
// the commit point of a compaction and of a rotation. When the directory
// fsync after it fails, the call returns the error but the new segment is
// already the log's: it must be adopted, not removed, so a reopen reads back
// the compacted record and appends after the failure land and survive.
func TestRecordLogAdoptsSegmentAfterManifestRename(t *testing.T) {
	// failSecondSync fails the second directory fsync from now on: the one
	// after the manifest's rename, in Compact and in a rotation alike.
	failSecondSync := func(t *testing.T) {
		calls := 0
		syncDirHook = func(string) error {
			if calls++; calls == 2 {
				return fmt.Errorf("injected directory fsync failure")
			}
			return nil
		}
		t.Cleanup(func() { syncDirHook = nil })
	}
	reopen := func(t *testing.T, l *RecordLog, dir string, want []string) {
		t.Helper()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err := OpenRecordLog(dir, 64)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l.Close()
		if l.Len() != len(want) {
			t.Fatalf("reopened log holds %d records, want %d", l.Len(), len(want))
		}
		for i, w := range want {
			if got, err := l.Read(i); err != nil || string(got) != w {
				t.Fatalf("reopened Read(%d) = %q, %v; want %q", i, got, err, w)
			}
		}
	}
	t.Run("compact", func(t *testing.T) {
		dir := t.TempDir()
		l, err := OpenRecordLog(dir, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		failSecondSync(t)
		if err := l.Compact(func(w io.Writer) error {
			_, err := io.WriteString(w, "base")
			return err
		}); err == nil {
			t.Fatal("Compact hid the failed directory fsync")
		}
		syncDirHook = nil
		if err := l.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		reopen(t, l, dir, []string{"base", "after"})
	})
	t.Run("rotate", func(t *testing.T) {
		dir := t.TempDir()
		l, err := OpenRecordLog(dir, 64)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for i := 0; l.sizes[0] < 64; i++ {
			want = append(want, fmt.Sprintf("record-%02d", i))
			if err := l.Append([]byte(want[i])); err != nil {
				t.Fatal(err)
			}
		}
		// The active segment is full: the next append rotates first.
		failSecondSync(t)
		if err := l.Append([]byte("lost")); err == nil {
			t.Fatal("Append hid the rotation's failed directory fsync")
		}
		syncDirHook = nil
		want = append(want, "after")
		if err := l.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if n := len(l.Segments()); n != 2 {
			t.Fatalf("%d segments after the rotation, want 2", n)
		}
		reopen(t, l, dir, want)
	})
}
