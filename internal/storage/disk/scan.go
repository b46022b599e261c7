package disk

import (
	"bufio"
	"errors"
	"io"
	"os"

	"saga/internal/triple"
)

// errScanStop is the sentinel a scan callback returns to stop the scan
// cleanly *before* the current record (used by Replay's reject-truncates
// contract).
var errScanStop = errors.New("disk: scan stopped")

// scanFramed reads CRC-framed records from f sequentially, calling fn with
// each record's frame offset and payload. It returns the offset of the first
// byte past the last record fn accepted: on a clean end that is the scanned
// size; on a torn or corrupt record — or a record fn rejected with
// errScanStop — it is the boundary before that record (the torn-tail
// recovery point). Any other fn error aborts the scan with that error.
func scanFramed(f *os.File, size int64, fn func(frameOff int64, payload []byte) error) (good int64, err error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 1<<16)
	var off int64
	for {
		// What is left of the scanned size bounds the record: a torn or
		// bit-flipped length prefix at the tail cannot size an allocation.
		payload, err := triple.ReadRecord(r, size-off)
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			// Torn or corrupt tail (crash during append): recover the prefix.
			return off, nil
		}
		if err := fn(off, payload); err != nil {
			if errors.Is(err, errScanStop) {
				return off, nil
			}
			return off, err
		}
		off += 8 + int64(len(payload))
	}
}
