package oplog_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/oplog"
	"saga/internal/triple"
)

// memRecordLog is an in-memory storage.RecordLog. Replay and Read hand out
// the stored records themselves, so a decoder that wrote to its input would
// show in them.
type memRecordLog struct {
	records [][]byte
	closed  bool
}

func (m *memRecordLog) Append(parts ...[]byte) error {
	m.records = append(m.records, bytes.Join(parts, nil))
	return nil
}

func (m *memRecordLog) Read(i int) ([]byte, error) {
	if i < 0 || i >= len(m.records) {
		return nil, fmt.Errorf("record %d out of range", i)
	}
	return m.records[i], nil
}

func (m *memRecordLog) Replay(fn func([]byte) error) error {
	for i, r := range m.records {
		if err := fn(r); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
}

func (m *memRecordLog) Compact(drop int, replacement [][]byte) error {
	m.records = append(replacement, m.records[drop:]...)
	return nil
}

func (m *memRecordLog) Len() int { return len(m.records) }

func (m *memRecordLog) Close() error {
	m.closed = true
	return nil
}

// joinRecords lays records out as the fuzz input: each one prefixed by its
// uvarint length (binary frames can hold any byte, so no separator works).
func joinRecords(recs ...[]byte) []byte {
	var data []byte
	for _, r := range recs {
		data = append(binary.AppendUvarint(data, uint64(len(r))), r...)
	}
	return data
}

// splitRecords inverts joinRecords; a length that runs past the input makes
// the rest of the input one record.
func splitRecords(data []byte) [][]byte {
	var recs [][]byte
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			return append(recs, data)
		}
		recs = append(recs, data[k:k+int(n)])
		data = data[k+int(n):]
	}
	return recs
}

// FuzzOpenStore feeds fuzzed op records through OpenStore. Any input must
// open or fail with an error, never panic; a failed open leaves the records
// untouched and closes the log. An opened log is compacted through its head:
// frames that do not line up with their op's entity IDs must stop the
// compaction, so a compaction that succeeds leaves only aligned frames.
// Appends then resume past the last record's op.
func FuzzOpenStore(f *testing.F) {
	record := func(op oplog.Op, frames []byte) []byte {
		rec, err := oplog.Record(op, len(frames))
		if err != nil {
			f.Fatal(err)
		}
		return append(rec, frames...)
	}
	e1 := triple.NewEntity("kg:E1")
	e1.Add(triple.New("", triple.PredName, triple.String("Adele")).WithSource("s", 0.9))
	enc, err := e1.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	frame := triple.AppendRecord(nil, enc)
	ids := []triple.EntityID{"kg:E1"}
	upsert := record(oplog.Op{LSN: 1, Kind: oplog.OpUpsert, EntityIDs: ids,
		Links: map[triple.EntityID]triple.EntityID{"s:1": "kg:E1"}}, frame)
	noPayload := record(oplog.Op{LSN: 4, Kind: oplog.OpUpsert, Deletes: ids, Unlinks: []triple.EntityID{"s:1"}}, nil)
	otherEntity := record(oplog.Op{LSN: 1, Kind: oplog.OpUpsert, EntityIDs: []triple.EntityID{"kg:E2"}}, frame)
	for _, seed := range [][][]byte{
		{upsert},                              // a valid op with frames
		{upsert, noPayload},                   // and one with no payload
		{[]byte(`{"lsn":1,"kind":"upsert"}`)}, // JSON-only: refused
		{{1, 0x7f, '{', '}'}},                 // header length past the record's end
		{{1, 3, 'a', 'b', 'c'}},               // header not JSON
		{upsert[:len(upsert)-3]},              // frames cut mid-record: compaction refuses
		{upsert, upsert},                      // LSN regression
		{otherEntity},                         // a frame of another entity: compaction refuses
	} {
		f.Add(joinRecords(seed...))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := &memRecordLog{records: splitRecords(data)}
		before := make([][]byte, len(rec.records))
		for i, r := range rec.records {
			before[i] = bytes.Clone(r)
		}
		l, err := oplog.OpenStore(rec)
		if err != nil {
			if !rec.closed {
				t.Fatal("a failed open left the record log open")
			}
			if !reflect.DeepEqual(rec.records, before) {
				t.Fatalf("a failed open changed the records: %q -> %q", before, rec.records)
			}
			return
		}
		ops := l.Read(0, 0)
		if len(ops) != len(before) {
			t.Fatalf("opened %d ops from %d records", len(ops), len(before))
		}
		next := l.LastLSN() + 1
		if _, err := graphengine.New(l).CompactThrough(l.LastLSN()); err == nil {
			for _, op := range l.Read(0, 0) {
				frames, err := l.Payload(op.LSN)
				if err != nil {
					t.Fatalf("lsn %d after compaction: %v", op.LSN, err)
				}
				for _, id := range op.EntityIDs {
					rec, rest, err := triple.NextRecord(frames)
					if err != nil {
						t.Fatalf("lsn %d after compaction: frame of %s: %v", op.LSN, id, err)
					}
					if got, err := triple.PeekID(rec); err != nil || string(got) != string(id) {
						t.Fatalf("lsn %d after compaction: frame holds %q where the op lists %s", op.LSN, got, id)
					}
					frames = rest
				}
				if len(frames) != 0 {
					t.Fatalf("lsn %d after compaction: %d bytes past the listed entities", op.LSN, len(frames))
				}
			}
		}
		lsn, err := l.Append(oplog.Op{Kind: oplog.OpUpsert})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != next {
			t.Fatalf("append after open got LSN %d, want %d", lsn, next)
		}
	})
}
