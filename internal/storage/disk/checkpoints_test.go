package disk

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"saga/internal/triple"
)

// TestCheckpointFileIsOneFrame: a streamed save leaves a file holding exactly
// the payload framed whole in memory — the header patched in after the
// payload streamed carries the same length and CRC.
func TestCheckpointFileIsOneFrame(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("checkpoint payload "), 10_000)
	if err := c.Save(3, func(w io.Writer) error {
		for rest := payload; len(rest) > 0; rest = rest[min(len(rest), 4099):] {
			if _, err := w.Write(rest[:min(len(rest), 4099)]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "00000000000000000003.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := triple.AppendRecord(nil, payload); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint file is %d bytes, not the %d-byte frame of its payload", len(got), len(want))
	}
}

// TestCheckpointRenameFailureRemovesTemp: a save whose publishing rename
// fails returns the error and leaves neither a temp file nor a new
// checkpoint; the previous one stays the latest.
func TestCheckpointRenameFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := c.Save(10, write("snap-10")); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the file should land makes the rename fail.
	if err := os.MkdirAll(filepath.Join(dir, "00000000000000000025.ckpt", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(25, write("snap-25")); err == nil {
		t.Fatal("Save over a directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	if lsn, payload, ok := c.Latest(); !ok || lsn != 10 || string(payload) != "snap-10" {
		t.Fatalf("Latest = %d, %q, %v; want the checkpoint at 10", lsn, payload, ok)
	}
}
