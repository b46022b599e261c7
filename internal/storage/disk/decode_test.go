package disk

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saga/internal/triple"
)

// FuzzDecodeKeyed: decodeKeyed never panics, and a payload it accepts is
// exactly the one appendKeyedRecord frames for the decoded op, key and value.
// testdata/fuzz/FuzzDecodeKeyed holds a key length of 2^64-1, which used to
// wrap negative, pass the bounds check and slice payload[11:10].
func FuzzDecodeKeyed(f *testing.F) {
	for _, rec := range []struct {
		op         byte
		key, value string
	}{{opPut, "staging/00000001", "payload"}, {opDel, "kg:E1", ""}, {opPut, "", "x"}} {
		frame, _ := appendKeyedRecord(nil, rec.op, rec.key, []byte(rec.value))
		f.Add(frame[8:])
	}
	f.Add([]byte{opPut, 0x80, 0x00, 'v'}) // overlong varint for length 0
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, key, valOff, err := decodeKeyed(payload)
		if err != nil {
			return
		}
		if valOff > len(payload) {
			t.Fatalf("valOff %d past a %d-byte payload", valOff, len(payload))
		}
		frame, frameValOff := appendKeyedRecord(nil, op, key, payload[valOff:])
		if want := triple.AppendRecord(nil, payload); !bytes.Equal(frame, want) {
			t.Fatalf("re-framed record %x, want %x", frame, want)
		}
		if frameValOff != 8+valOff {
			t.Fatalf("re-framed value offset %d, want %d", frameValOff, 8+valOff)
		}
	})
}

// TestManifestRejectsPathInSegmentName: a MANIFEST line with text after the
// segment number used to parse as that segment, and OpenRecordLog opened the
// path it named — outside the log directory — and truncated it to its last
// good frame.
func TestManifestRejectsPathInSegmentName(t *testing.T) {
	dir := t.TempDir()
	victim := filepath.Join(dir, "victim")
	content := []byte("not a record log, and not the log's to truncate")
	if err := os.WriteFile(victim, content, 0o644); err != nil {
		t.Fatal(err)
	}
	logDir := filepath.Join(dir, "log")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(logDir, manifestName), []byte("000001.seg/../../victim\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenRecordLog(logDir, 0); err == nil {
		l.Close() //saga:errok — the open is the failure under test
		t.Error("OpenRecordLog accepted a manifest naming a path outside the log")
	}
	got, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("victim file changed to %q", got)
	}
}

// TestOrphanSweepKeepsNonSegmentFiles: the orphan sweep used to take any name
// that starts like a segment ("000003.seg.bak") for an unlisted segment and
// delete it.
func TestOrphanSweepKeepsNonSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenRecordLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	bak := filepath.Join(dir, "000003.seg.bak")
	if err := os.WriteFile(bak, []byte("backup"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenRecordLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(bak); err != nil {
		t.Fatalf("Open removed a file that is not a segment: %v", err)
	}
	if re.Len() != 1 {
		t.Fatalf("reopened log has %d records, want 1", re.Len())
	}
}

// FuzzManifest: parseManifest never panics, accepts only segment names (each
// once), and a manifest written from what it accepted parses back the same.
func FuzzManifest(f *testing.F) {
	for _, seed := range []string{
		"", "000001.seg\n", "000002.seg\n000001.seg\n\n", "1000000.seg\n",
		"000001.seg/../../victim\n", "000003.seg.bak\n", "000001.seg\n000001.seg\n", "1.seg\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		names, err := parseManifest(data)
		if err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, name := range names {
			n, ok := segmentNumber(name)
			if !ok || name != fmt.Sprintf("%06d.seg", n) || seen[name] {
				t.Fatalf("accepted segment name %q (manifest %q)", name, data)
			}
			seen[name] = true
		}
		var rewritten strings.Builder
		for _, name := range names {
			rewritten.WriteString(name + "\n")
		}
		again, err := parseManifest([]byte(rewritten.String()))
		if err != nil || strings.Join(again, ",") != strings.Join(names, ",") {
			t.Fatalf("rewritten manifest parsed to %q, %v; want %q", again, err, names)
		}
	})
}
