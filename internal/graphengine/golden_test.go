package graphengine

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"saga/internal/oplog"
	"saga/internal/triple"
)

// goldenEntities is the fixed payload whose encodings are committed under
// testdata/ (see TestGoldenPayloadBytes).
func goldenEntities() []*triple.Entity {
	a := triple.NewEntity("kg:E00000001")
	a.Add(
		triple.New("", triple.PredType, triple.String("human")).WithSource("musicdb", 0.9),
		triple.New("", triple.PredName, triple.String("Adele")).WithSource("musicdb", 0.9).WithLocale("en"),
		triple.New("", "birth_year", triple.Int(1988)),
		triple.New("", "height_m", triple.Float(1.75)),
		triple.New("", "active", triple.Bool(true)),
		triple.New("", "born", triple.Time(time.Unix(579484800, 0).UTC())),
		triple.New("", "unknown", triple.Value{}),
		triple.NewRel("", "educated_at", "r1", "school", triple.Ref("kg:E00000003")),
	)
	a.Triples = append(a.Triples, triple.Triple{Subject: a.ID, Predicate: "genre", Object: triple.String("soul"),
		Sources: []string{"musicdb", "wiki"}, Trust: []float64{0.9, 0.75}})
	b := triple.NewEntity("src:wiki/Q42")
	b.Add(triple.New("", triple.PredSameAs, triple.Ref("kg:E00000001")).WithSource("linker", 0.5))
	return []*triple.Entity{a, triple.NewEntity("kg:E00000004"), b}
}

// goldenOp is an op over the golden entities with every recorded header
// field set and more than one link, for the op-header golden bytes.
func goldenOp() oplog.Op {
	return oplog.Op{LSN: 300, Kind: oplog.OpUpsert, Source: "musicdb",
		EntityIDs: []triple.EntityID{"kg:E00000001", "kg:E00000004", "src:wiki/Q42"},
		Deletes:   []triple.EntityID{"kg:E00000009"},
		Links:     map[triple.EntityID]triple.EntityID{"wiki:Q42": "kg:E00000001", "musicdb:4": "kg:E00000004", "musicdb:1": "kg:E00000001"},
		Unlinks:   []triple.EntityID{"musicdb:9"}}
}

func readGoldenHex(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenPayloadBytes pins the entity-payload format and the op header
// of record format 2: the committed payload bytes were produced by the
// marshal-then-WriteRecord encoders these replaced, so a difference is a
// format change, not a refactor. A checkpoint's base, streamed from a graph
// and a link table, must carry the header an appended op with its IDs and
// links would.
func TestGoldenPayloadBytes(t *testing.T) {
	wantPayload := readGoldenHex(t, "golden_payload.hex")
	got, err := encodeEntities(goldenEntities())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantPayload) {
		t.Errorf("encodeEntities moved\n got %x\nwant %x", got, wantPayload)
	}
	if len(got) != cap(got) {
		t.Errorf("encodeEntities: len %d cap %d; want one exact-size allocation", len(got), cap(got))
	}
	p, err := decodeEntities(wantPayload)
	if err != nil {
		t.Fatalf("golden payload no longer decodes: %v", err)
	}
	if len(p.Entities) != 3 || len(p.Records) != 3 {
		t.Fatalf("decoded %d entities, %d records; want 3, 3", len(p.Entities), len(p.Records))
	}
	for i, e := range p.Entities {
		enc, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, p.Records[i]) {
			t.Errorf("record %d is not entity %s's encoding", i, e.ID)
		}
	}
	wantHeader := readGoldenHex(t, "golden_op_header.hex")
	if got := oplog.AppendHeader(nil, goldenOp()); !bytes.Equal(got, wantHeader) {
		t.Errorf("op header moved\n got %x\nwant %x", got, wantHeader)
	}

	log, records := openDiskLog(t, t.TempDir())
	defer log.Close()
	e := New(log)
	for range 2 { // two ops, so the checkpoint compacts
		if _, err := e.Publish(oplog.OpUpsert, "musicdb", goldenEntities()); err != nil {
			t.Fatal(err)
		}
	}
	links := goldenOp().Links
	w, err := e.Checkpoint(linkMap(links), graphOf(goldenEntities()...))
	if err != nil {
		t.Fatal(err)
	}
	base := oplog.Op{LSN: w, EntityIDs: goldenOp().EntityIDs, Links: links}
	want := append(oplog.AppendHeader(nil, base), wantPayload...)
	if got, err := records.RecordLog.Read(0); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the checkpoint's base record differs from the appended op's (%v)\n got %x\nwant %x", err, got, want)
	}
}
