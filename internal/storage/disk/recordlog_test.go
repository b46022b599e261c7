package disk

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRecordLogReadAcrossSegments: with segments of a few records each, Read
// finds every record by its kept offset — after appends, after a compaction
// whose boundary falls inside a segment, and after a reopen — and a record
// whose bytes changed on disk fails its CRC instead of reading back wrong.
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
	if err := l.Compact(7, [][]byte{[]byte("compacted-a"), []byte("compacted-b")}); err != nil {
		t.Fatal(err)
	}
	want = append([]string{"compacted-a", "compacted-b"}, want[7:]...)
	check(l, want)
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	want = append(want, "after")
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
