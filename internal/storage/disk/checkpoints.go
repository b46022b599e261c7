package disk

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"saga/internal/triple"
)

// checkpointKeep is how many checkpoint files the store retains. Keeping the
// previous one alongside the newest means a checkpoint that turns out to be
// unreadable (partial write that slipped past rename, media damage) degrades
// recovery to the prior watermark instead of LSN zero.
const checkpointKeep = 2

// checkpointBuffer is the size of the write buffer a store keeps for its
// saves: the one allocation a checkpoint's bytes pass through.
const checkpointBuffer = 64 << 10

// Checkpoints is the durable checkpoint store: each Save writes one
// CRC-framed file named by its watermark (`%020d.ckpt`, so lexical order is
// LSN order) via temp-write + fsync + rename + dir fsync. Latest opens the
// newest file whose frame verifies, skipping damaged ones. Saves are atomic:
// a crash mid-save leaves a temp file (ignored) and the previous checkpoint
// intact.
type Checkpoints struct {
	mu     sync.Mutex
	dir    string
	bw     *bufio.Writer // Reset onto each save's frameWriter
	closed bool
}

// OpenCheckpoints opens (creating if needed) a checkpoint store rooted at
// dir. Stale temp files from crashed saves are removed.
func OpenCheckpoints(dir string) (*Checkpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: checkpoint dir %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: scan checkpoint dir: %w", err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, ent.Name())) //saga:errok — stale temp, best effort
		}
	}
	return &Checkpoints{dir: dir, bw: bufio.NewWriterSize(nil, checkpointBuffer)}, nil
}

// Save implements storage.Checkpointer. The payload streams from write into
// the temp file, and only the rename publishes it; any failure before the
// rename, or of the rename, removes the temp file. write runs under the
// store's lock, which guards the write buffer, so it must not call the store.
func (c *Checkpoints) Save(lsn uint64, write func(io.Writer) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("disk: save to closed checkpoint store")
	}
	name := fmt.Sprintf("%020d.ckpt", lsn)
	tmp := filepath.Join(c.dir, name+".tmp")
	err := c.writeTempLocked(tmp, write)
	if err == nil {
		if err = os.Rename(tmp, filepath.Join(c.dir, name)); err != nil {
			err = fmt.Errorf("disk: publish checkpoint %s: %w", name, err)
		}
	}
	if err != nil {
		os.Remove(tmp) //saga:errok — unreferenced temp
		return err
	}
	if err := c.syncDirLocked(); err != nil {
		return err
	}
	c.pruneLocked()
	return nil
}

// writeTempLocked writes the checkpoint file's one frame to a fresh temp
// file, then fsyncs and closes it. The header goes in last: a placeholder
// holds its place while the payload streams through the store's buffer and a
// frameWriter that keeps the payload's length and CRC, and WriteAt patches
// it in. The bytes are those of the payload framed whole in memory, and the
// payload is never held.
func (c *Checkpoints) writeTempLocked(tmp string, write func(io.Writer) error) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("disk: create checkpoint temp: %w", err)
	}
	fw := &frameWriter{f: f}
	c.bw.Reset(fw)
	hdr := triple.FrameHeader(0, 0) // the placeholder
	_, err = f.Write(hdr[:])
	if err == nil {
		if err = write(c.bw); err == nil {
			err = c.bw.Flush()
		}
	}
	if err == nil && fw.n > math.MaxUint32 {
		err = fmt.Errorf("%d bytes overflow the frame", fw.n)
	}
	if err == nil {
		hdr = triple.FrameHeader(uint32(fw.n), fw.crc)
		_, err = f.WriteAt(hdr[:], 0)
	}
	if err != nil {
		f.Close() //saga:errok — the temp is removed
		return fmt.Errorf("disk: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //saga:errok — the temp is removed
		return fmt.Errorf("disk: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("disk: close checkpoint temp: %w", err)
	}
	return nil
}

// frameWriter passes a frame's payload through to f, keeping its length and
// running CRC for the header.
type frameWriter struct {
	f   *os.File
	n   int64
	crc uint32
}

func (w *frameWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	w.crc = triple.UpdateCRC(w.crc, p[:n])
	return n, err
}

func (c *Checkpoints) syncDirLocked() error {
	d, err := os.Open(c.dir)
	if err != nil {
		return fmt.Errorf("disk: open checkpoint dir: %w", err)
	}
	serr := d.Sync()
	d.Close()
	if serr != nil {
		return fmt.Errorf("disk: sync checkpoint dir: %w", serr)
	}
	return nil
}

// pruneLocked removes all but the newest checkpointKeep files. Retention is
// bookkeeping, not correctness — a prune lost to a crash just leaves an
// extra old checkpoint.
func (c *Checkpoints) pruneLocked() {
	names := c.sortedNamesLocked()
	for len(names) > checkpointKeep {
		os.Remove(filepath.Join(c.dir, names[0])) //saga:errok — retention only
		names = names[1:]
	}
}

// sortedNamesLocked lists .ckpt files oldest-first (zero-padded LSN names
// sort chronologically).
func (c *Checkpoints) sortedNamesLocked() []string {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".ckpt") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	return names
}

// Latest implements storage.Checkpointer: newest intact checkpoint wins;
// damaged files are skipped (recovery falls back to the previous checkpoint,
// then to full replay).
func (c *Checkpoints) Latest() (uint64, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := c.sortedNamesLocked()
	for i := len(names) - 1; i >= 0; i-- {
		var lsn uint64
		if _, err := fmt.Sscanf(names[i], "%d.ckpt", &lsn); err != nil {
			continue
		}
		f, err := os.Open(filepath.Join(c.dir, names[i]))
		if err != nil {
			continue
		}
		var payload []byte
		st, err := f.Stat()
		if err == nil {
			payload, err = triple.ReadRecord(f, st.Size(), nil)
		}
		f.Close()
		if err != nil {
			continue // torn or corrupt — try the previous one
		}
		return lsn, payload, true
	}
	return 0, nil, false
}

// Close implements storage.Checkpointer.
func (c *Checkpoints) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
