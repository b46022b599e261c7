package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// hostileHeader is a frame header whose length prefix claims ~4 GiB: what a
// torn or bit-flipped append leaves at a file's tail.
var hostileHeader = []byte{0xF0, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD, 0xBE, 0xEF, 'x', 'y'}

func appendToFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestRecoveryBoundsRecordLength: recovery of a file whose last header claims
// 0xFFFFFFF0 bytes keeps the good prefix and allocates nothing for the claim
// (ReadRecord used to make([]byte, n) before looking at what was left).
func TestRecoveryBoundsRecordLength(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenRecordLog(filepath.Join(dir, "log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(dir, "log", l.Segments()[0])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appendToFile(t, seg, hostileHeader)

	var got []string
	if n := allocatedBy(func() {
		if l, err = OpenRecordLog(filepath.Join(dir, "log"), 0); err != nil {
			t.Fatal(err)
		}
		if err := l.Replay(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
			t.Fatal(err)
		}
	}); n > 1<<20 {
		t.Errorf("recovering past a hostile header allocated %d bytes", n)
	}
	defer l.Close()
	if len(got) != 5 || got[4] != "record-4" {
		t.Fatalf("recovered %q, want the 5 good records", got)
	}
	// The torn tail is gone: the next append lands after the good prefix.
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 6 {
		t.Fatalf("log has %d records after recovery and one append, want 6", l.Len())
	}

	// The same header at the head of the newest checkpoint file: Latest falls
	// back to the previous checkpoint, again without sizing a buffer by it.
	c, err := OpenCheckpoints(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Save(7, []byte("good checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt", fmt.Sprintf("%020d.ckpt", 9)), hostileHeader, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := allocatedBy(func() {
		lsn, payload, ok := c.Latest()
		if !ok || lsn != 7 || string(payload) != "good checkpoint" {
			t.Errorf("Latest = %d %q %v, want the intact checkpoint at 7", lsn, payload, ok)
		}
	}); n > 1<<20 {
		t.Errorf("skipping a hostile checkpoint allocated %d bytes", n)
	}
}

// TestReplayRejectionKeepsLog: a record the replay callback rejects passed its
// CRC, so it is acknowledged data. Replay must report the callback's error
// with where it stopped and leave every segment file and record in place (it
// used to truncate there, rewrite the manifest and delete every later
// segment).
func TestReplayRejectionKeepsLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	l, err := OpenRecordLog(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 20; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	listFiles := func() map[string]int64 {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]int64, len(entries))
		for _, ent := range entries {
			info, err := ent.Info()
			if err != nil {
				t.Fatal(err)
			}
			files[ent.Name()] = info.Size()
		}
		return files
	}
	before := listFiles()
	if len(l.Segments()) < 3 {
		t.Fatalf("want several segments, have %v", l.Segments())
	}

	rejected := errors.New("undecodable")
	err = l.Replay(func(p []byte) error {
		if string(p) == "record-02" {
			return rejected
		}
		return nil
	})
	if !errors.Is(err, rejected) || !strings.Contains(err.Error(), ".seg at offset") {
		t.Fatalf("Replay error = %v, want the callback's error with segment and offset", err)
	}
	if got := l.Len(); got != 20 {
		t.Fatalf("Len after rejected replay = %d, want 20", got)
	}
	if after := listFiles(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected replay changed the files:\nbefore %v\nafter  %v", before, after)
	}
	var got []string
	if err := l.Replay(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 || got[19] != "record-19" {
		t.Fatalf("replay after rejection = %q", got)
	}
}
