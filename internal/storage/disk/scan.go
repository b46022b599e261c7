package disk

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"saga/internal/triple"
)

// scanFramed reads CRC-framed records from f sequentially, calling fn with
// each record's frame offset and payload. It returns the offset of the first
// byte past the last whole record: on a clean end that is the scanned size,
// and on a torn or corrupt record it is the boundary before that record (the
// torn-tail recovery point). A record that fails its CRC with a whole
// CRC-valid record somewhere after it is not a torn tail but corruption in
// mid-file: the scan fails there, naming the file and the offset, so no
// caller truncates the valid records after it. An error from fn stops the
// scan and is returned with the offset of the record fn rejected; what the
// error means is the caller's to decide. Every record is read into one
// buffer, so the payload fn is handed is valid only during the call.
func scanFramed(f *os.File, size int64, fn func(frameOff int64, payload []byte) error) (good int64, err error) {
	sr := io.NewSectionReader(f, 0, size)
	r := bufio.NewReaderSize(sr, 1<<16)
	off, payload := int64(0), []byte(nil)
	for {
		// What is left of the scanned size bounds the record: a torn or
		// bit-flipped length prefix at the tail cannot size an allocation.
		payload, err = triple.ReadRecord(r, size-off, payload)
		if err != nil {
			if errors.Is(err, triple.ErrCorruptRecord) && validRecordFollows(sr, r) {
				return off, fmt.Errorf("%s: record at offset %d fails its checksum before valid records: %w", f.Name(), off, err)
			}
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

// validRecordFollows reads on from r, which has just consumed a frame that
// failed its CRC, and reports whether a whole CRC-valid frame follows before
// the end of sr.
func validRecordFollows(sr *io.SectionReader, r *bufio.Reader) bool {
	for {
		// A SectionReader fails a Seek only for a bad whence or a negative
		// offset, and this one asks for neither.
		pos, _ := sr.Seek(0, io.SeekCurrent)
		// r has pulled pos bytes from sr; the Buffered ones are still unread.
		_, err := triple.ReadRecord(r, sr.Size()-(pos-int64(r.Buffered())), nil)
		if err == nil {
			return true
		}
		if !errors.Is(err, triple.ErrCorruptRecord) {
			return false
		}
	}
}
