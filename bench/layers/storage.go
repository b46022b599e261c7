package layers

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"saga/internal/storage/disk"
)

// recordBytes is the size of the records the storage replays write: about
// one encoded operation.
const recordBytes = 512

func record(i int) []byte {
	b := make([]byte, recordBytes)
	for k := range b {
		b[k] = byte(i + k)
	}
	return b
}

// ReplayRecordLogAppend appends records to a disk record log under dir. Each
// append is framed, written and fsynced.
func ReplayRecordLogAppend(dir string, budget time.Duration) (Measure, error) {
	rec, err := disk.OpenRecordLog(filepath.Join(dir, "recordlog"), 0)
	if err != nil {
		return Measure{}, err
	}
	payload := record(1)
	m := loop(budget, 1, func(int) {
		if aerr := rec.Append(payload); aerr != nil {
			err = aerr
		}
	})
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	return m, err
}

// ReplayFsync writes and fsyncs record-sized chunks on a file of the
// benchmark's own under dir. The record log has no public sync apart from
// Append, so this is the sandbox's price of the fsync inside each append:
// the share of recordlog_append_us only batching could remove.
func ReplayFsync(dir string, budget time.Duration) (Measure, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.dat"))
	if err != nil {
		return Measure{}, err
	}
	payload := record(2)
	var m Measure
	start := time.Now()
	for m.Elapsed < budget {
		if _, err = f.Write(payload); err != nil {
			break
		}
		t := time.Now()
		if err = f.Sync(); err != nil {
			break
		}
		m.Ops++
		m.Elapsed += time.Since(t)
		if time.Since(start) > 4*budget {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return m, err
}

// ReplayBlobPut stages payloads in the disk backend's segment blob store.
func ReplayBlobPut(dir string, budget time.Duration) (Measure, error) {
	st, err := disk.OpenSegmentBlobStore(filepath.Join(dir, "blobs"), 0)
	if err != nil {
		return Measure{}, err
	}
	m := loop(budget, 1, func(int) {
		// Stage takes ownership of the payload, so each call gets its own.
		if _, serr := st.Stage(record(3)); serr != nil {
			err = serr
		}
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return m, err
}

// ReplayKVPut stores entity-sized values in the disk backend's entity KV.
func ReplayKVPut(dir string, budget time.Duration) (Measure, error) {
	kv, err := disk.OpenEntityKV(filepath.Join(dir, "kv.dat"))
	if err != nil {
		return Measure{}, err
	}
	payload := record(4)
	n := 0
	m := loop(budget, 1, func(int) {
		n++
		if perr := kv.Put(fmt.Sprintf("kg:%d", n%4096), payload); perr != nil {
			err = perr
		}
	})
	if cerr := kv.Close(); err == nil {
		err = cerr
	}
	return m, err
}
