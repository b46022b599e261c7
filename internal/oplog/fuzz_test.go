package oplog_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"reflect"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/oplog"
	"saga/internal/pmap"
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

func (m *memRecordLog) Compact(write func(io.Writer) error) error {
	var rec bytes.Buffer
	if err := write(&rec); err != nil {
		return err
	}
	m.records = [][]byte{rec.Bytes()}
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

// replica registers a graph agent and a link-table agent on e and returns
// the stores they replay into.
func replica(e *graphengine.Engine) (*triple.Graph, map[triple.EntityID]triple.EntityID) {
	g, links := triple.NewGraph(), make(map[triple.EntityID]triple.EntityID)
	e.RegisterAgent(graphengine.GraphAgent{Graph: g})
	e.RegisterAgent(graphengine.FuncAgent{AgentName: "links", Fn: func(op oplog.Op, _ graphengine.Payload) error {
		for src, tgt := range op.Links {
			links[src] = tgt
		}
		for _, src := range op.Unlinks {
			delete(links, src)
		}
		return nil
	}})
	return g, links
}

// FuzzOpenStore feeds fuzzed op records through OpenStore. Any input must
// open or fail with an error, never panic; a failed open leaves the records
// untouched and closes the log. An opened log is replayed into a graph and a
// link table: frames that do not line up with their op's entity IDs must
// stop the replay. A log that replays is checkpointed, and the compacted
// records must reopen and replay to the same graph and links. Appends then
// resume past the last record's op.
func FuzzOpenStore(f *testing.F) {
	record := func(op oplog.Op, frames []byte) []byte {
		return append(oplog.AppendHeader(nil, op), frames...)
	}
	frameOf := func(e *triple.Entity) []byte {
		enc, err := e.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return triple.AppendRecord(nil, enc)
	}
	e1 := triple.NewEntity("kg:E1")
	e1.Add(triple.New("", triple.PredName, triple.String("Adele")).WithSource("s", 0.9))
	frame := frameOf(e1)
	ids := []triple.EntityID{"kg:E1"}
	upsert := record(oplog.Op{LSN: 1, Kind: oplog.OpUpsert, EntityIDs: ids,
		Links: map[triple.EntityID]triple.EntityID{"s:1": "kg:E1"}}, frame)
	noPayload := record(oplog.Op{LSN: 4, Kind: oplog.OpUpsert, Deletes: ids, Unlinks: []triple.EntityID{"s:1"}}, nil)
	otherEntity := record(oplog.Op{LSN: 1, Kind: oplog.OpUpsert, EntityIDs: []triple.EntityID{"kg:E2"}}, frame)
	// A base, as a checkpoint leaves it: many frames and a link table at a
	// high LSN, then an op past it.
	baseOp := oplog.Op{LSN: 40, Kind: oplog.OpUpsert, Links: make(map[triple.EntityID]triple.EntityID)}
	var baseFrames []byte
	for i := 0; i < 12; i++ {
		e := triple.NewEntity(triple.EntityID(fmt.Sprintf("kg:E%02d", i)))
		e.Add(triple.New("", triple.PredName, triple.String(fmt.Sprintf("Person %d", i))).WithSource("s", 0.9))
		baseOp.EntityIDs = append(baseOp.EntityIDs, e.ID)
		baseOp.Links[triple.EntityID(fmt.Sprintf("s:%d", i))] = e.ID
		baseFrames = append(baseFrames, frameOf(e)...)
	}
	base := record(baseOp, baseFrames)
	past := record(oplog.Op{LSN: 41, Kind: oplog.OpUpsert, Deletes: []triple.EntityID{"kg:E03"}, Unlinks: []triple.EntityID{"s:3"}}, nil)
	// Hostile headers: each field is a uvarint count of length-prefixed IDs
	// (after the version byte 2 and the LSN): entity IDs, deletes, link
	// pairs, unlinks.
	format1 := `{"lsn":1,"kind":"upsert","entity_ids":["kg:E1"]}`
	for _, seed := range [][][]byte{
		{upsert},                              // a valid op with frames
		{upsert, noPayload},                   // and one with no payload
		{[]byte(`{"lsn":1,"kind":"upsert"}`)}, // JSON-only: refused
		{append(append([]byte{1, byte(len(format1))}, format1...), frame...)}, // format 1: refused
		{{2, 1, 0x7f}},            // an ID count past the end
		{{2, 1, 1, 5, 'k', 'g'}},  // a truncated ID
		{{2, 1, 0, 0, 1, 1, 'a'}}, // a link pair cut after its source
		{{2, 1, 0, 0, 2, 1, 'b', 1, 'x', 1, 'a', 1, 'y', 0}}, // link sources out of order
		{{2, 1, 0, 0, 2, 1, 'a', 1, 'x', 1, 'a', 1, 'y', 0}}, // a link source twice
		{{2, 0x81, 0, 0, 0, 0, 0}},                           // an overlong LSN
		{upsert[:len(upsert)-3]},                             // frames cut mid-record: replay refuses
		{upsert, upsert},                                     // LSN regression
		{otherEntity},                                        // a frame of another entity: replay refuses
	} {
		f.Add(joinRecords(seed...))
	}
	f.Add([]byte{})
	f.Add(joinRecords(base, past))
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
		e := graphengine.New(l)
		g, links := replica(e)
		if err := e.CatchUp(); err == nil {
			var table pmap.Map[triple.EntityID, triple.EntityID]
			o := new(pmap.Owner)
			for src, tgt := range links {
				table.Set(o, src, tgt)
			}
			if _, err := e.Checkpoint(table, g); err != nil {
				t.Fatalf("checkpoint of a replayed log: %v", err)
			}
			if n := l.Len(); n != min(len(ops), 1) {
				t.Fatalf("a checkpoint left %d ops", n)
			}
			re, err := oplog.OpenStore(&memRecordLog{records: rec.records})
			if err != nil {
				t.Fatalf("the checkpointed log does not reopen: %v", err)
			}
			e2 := graphengine.New(re)
			g2, links2 := replica(e2)
			if err := e2.CatchUp(); err != nil {
				t.Fatalf("the checkpointed log does not replay: %v", err)
			}
			if !reflect.DeepEqual(g2.Triples(), g.Triples()) || !maps.Equal(links2, links) {
				t.Fatalf("the checkpointed log replays to %d entities and %d links, the original to %d and %d",
					g2.Len(), len(links2), g.Len(), len(links))
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
