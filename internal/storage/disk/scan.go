package disk

import (
	"bufio"
	"io"
	"os"

	"saga/internal/triple"
)

// scanFramed reads CRC-framed records from f sequentially, calling fn with
// each record's frame offset and payload. It returns the offset of the first
// byte past the last whole record: on a clean end that is the scanned size,
// and on a torn or corrupt record it is the boundary before that record (the
// torn-tail recovery point). An error from fn stops the scan and is returned
// with the offset of the record fn rejected; what the error means is the
// caller's to decide.
func scanFramed(f *os.File, size int64, fn func(frameOff int64, payload []byte) error) (good int64, err error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 1<<16)
	var off int64
	for {
		// What is left of the scanned size bounds the record: a torn or
		// bit-flipped length prefix at the tail cannot size an allocation.
		payload, err := triple.ReadRecord(r, size-off)
		if err != nil {
			// A clean end (io.EOF), or a torn or corrupt tail (crash during
			// append): recover the prefix.
			return off, nil
		}
		if err := fn(off, payload); err != nil {
			return off, err
		}
		off += int64(triple.RecordLen(len(payload)))
	}
}
