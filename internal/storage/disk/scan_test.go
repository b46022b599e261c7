package disk

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"saga/internal/triple"
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

// keyedFile concatenates framed keyed puts, with the CRC-valid record bad
// (its key length is an overlong varint, which decodeKeyed rejects) after
// the first `before` of them.
func keyedFile(keys []string, before int, bad []byte) []byte {
	var data []byte
	for i, key := range keys {
		if i == before {
			data = append(data, bad...)
		}
		frame, _ := appendKeyedRecord(nil, opPut, key, []byte("value of "+key))
		data = append(data, frame...)
	}
	return data
}

var undecodable = triple.AppendRecord(nil, []byte{opPut, 0x80, 0x00, 'v'})

// TestUndecodableKeyedRecordFailsOpen: a keyed record that passes its CRC
// but does not decode is not a torn tail. Opening the entity KV or the
// staging store on it must fail, naming where, and leave the file as it is;
// both used to truncate there, dropping every later record with it.
func TestUndecodableKeyedRecordFailsOpen(t *testing.T) {
	for _, tc := range []struct {
		name string
		file string // relative to the store's directory
		keys []string
		open func(dir string) (io.Closer, error)
	}{
		{"entity kv", "entities.dat", []string{"kg:E1", "kg:E2", "kg:E3", "kg:E4"},
			func(dir string) (io.Closer, error) {
				return OpenEntityKV(filepath.Join(dir, "entities.dat"))
			}},
		{"segment blob store", "000001.seg", []string{"staging/00000001", "staging/00000002", "staging/00000003"},
			func(dir string) (io.Closer, error) { return OpenSegmentBlobStore(dir, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, tc.file)
			data := keyedFile(tc.keys, 2, undecodable)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := tc.open(dir)
			if err == nil {
				store.Close() //saga:errok — the open is the failure under test
				t.Fatal("open accepted a CRC-valid record it cannot decode")
			}
			if !strings.Contains(err.Error(), "offset") {
				t.Errorf("error %q does not say where", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("the failed open changed the file (%d bytes, was %d): %v", len(got), len(data), err)
			}
		})
	}
}

// TestCorruptRecordBeforeValidOnesFailsOpen: a record that fails its CRC
// with whole CRC-valid records after it is corruption in mid-file, not a torn
// tail. Opening the store must fail, naming the file and the offset, and
// leave the file as it is; the open used to truncate there, dropping the
// valid records after it.
func TestCorruptRecordBeforeValidOnesFailsOpen(t *testing.T) {
	keyed := func(keys ...string) func(string) (string, error) {
		return func(path string) (string, error) {
			return path, os.WriteFile(path, keyedFile(keys, -1, nil), 0o644)
		}
	}
	for _, tc := range []struct {
		name  string
		file  string // relative to the store's directory: the record log's own directory
		write func(path string) (string, error)
		open  func(dir string) (io.Closer, error)
	}{
		{"record log", "log", func(dir string) (string, error) {
			l, err := OpenRecordLog(dir, 0)
			if err != nil {
				return "", err
			}
			for i := 0; i < 3; i++ {
				if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
					return "", err
				}
			}
			seg := filepath.Join(dir, l.Segments()[0])
			return seg, l.Close()
		}, func(dir string) (io.Closer, error) { return OpenRecordLog(filepath.Join(dir, "log"), 0) }},
		{"active blob segment", "000001.seg", keyed("staging/00000001", "staging/00000002", "staging/00000003"),
			func(dir string) (io.Closer, error) { return OpenSegmentBlobStore(dir, 0) }},
		{"entity kv", "entities.dat", keyed("kg:E1", "kg:E2", "kg:E3"),
			func(dir string) (io.Closer, error) {
				return OpenEntityKV(filepath.Join(dir, "entities.dat"))
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, err := tc.write(filepath.Join(dir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[8] ^= 0xFF // record 1's first payload byte
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := tc.open(dir)
			if err == nil {
				store.Close() //saga:errok — the open is the failure under test
				t.Fatal("open accepted a corrupt record with valid records after it")
			}
			if !strings.Contains(err.Error(), filepath.Base(path)) || !strings.Contains(err.Error(), "offset 0") {
				t.Errorf("error %q does not name the file and offset", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("the failed open changed the file (%d bytes, was %d): %v", len(got), len(data), err)
			}
		})
	}
}

// TestSealedSegmentKeepsTornBytes: only the active (last) staging segment
// takes appends, so only its torn tail is cut off. An earlier segment with
// bytes past its last whole record keeps them — the open used to truncate
// every segment — and every blob on either side still reads back.
func TestSealedSegmentKeepsTornBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentBlobStore(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for i := 0; i < 8; i++ {
		blob := fmt.Sprintf("blob-%d", i)
		key, err := s.Stage([]byte(blob))
		if err != nil {
			t.Fatal(err)
		}
		want[key] = blob
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, "000001.seg")
	if _, err := os.Stat(filepath.Join(dir, "000002.seg")); err != nil {
		t.Fatalf("want at least two segments: %v", err)
	}
	appendToFile(t, first, hostileHeader)
	before, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}

	re, err := OpenSegmentBlobStore(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if after, err := os.ReadFile(first); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("reopen changed a sealed segment (%d bytes, was %d): %v", len(after), len(before), err)
	}
	for key, blob := range want {
		if got, ok := re.Get(key); !ok || string(got) != blob {
			t.Fatalf("Get(%s) = %q, %v; want %q", key, got, ok, blob)
		}
	}
	if _, err := re.Stage([]byte("after")); err != nil {
		t.Fatal(err)
	}
}
