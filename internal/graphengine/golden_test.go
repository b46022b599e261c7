package graphengine

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

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

func goldenMeta() CheckpointMeta {
	return CheckpointMeta{LSN: 42, Links: map[triple.EntityID]triple.EntityID{
		"src:wiki/Q42": "kg:E00000001",
		"src:mdb/7":    "kg:E00000001",
	}}
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

// TestGoldenPayloadBytes pins the entity-payload and checkpoint formats: the
// committed bytes were produced by the marshal-then-WriteRecord encoders
// these replaced, so a difference is a format change, not a refactor.
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

	wantCkpt := readGoldenHex(t, "golden_checkpoint.hex")
	meta, err := json.Marshal(goldenMeta())
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := WriteCheckpoint(&ckpt, meta, slices.Values(goldenEntities())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.Bytes(), wantCkpt) {
		t.Errorf("WriteCheckpoint moved\n got %x\nwant %x", ckpt.Bytes(), wantCkpt)
	}
	decoded, ents, err := DecodeCheckpoint(wantCkpt)
	if err != nil {
		t.Fatalf("golden checkpoint no longer decodes: %v", err)
	}
	if decoded.LSN != 42 || len(decoded.Links) != 2 || len(ents.Entities) != 3 {
		t.Fatalf("golden checkpoint decoded to lsn %d, %d links, %d entities", decoded.LSN, len(decoded.Links), len(ents.Entities))
	}
}
