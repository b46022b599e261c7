package triple

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// goldenEntities is the fixed entity set whose encodings are committed under
// testdata/: every value kind, composite rows, multi-source provenance,
// locale, a trust list shorter than its source list, non-ASCII text, and an
// empty entity.
func goldenEntities() []*Entity {
	adele := NewEntity("kg:E00000001")
	adele.Add(
		New("", PredType, String("human")).WithSource("musicdb", 0.9),
		New("", PredName, String("Adele")).WithSource("musicdb", 0.9).WithLocale("en"),
		New("", PredAlias, String("Adele Laurie Blue Adkins")),
		New("", "birth_year", Int(1988)),
		New("", "height_m", Float(1.75)),
		New("", "active", Bool(true)),
		New("", "retired", Bool(false)),
		New("", "born", Time(time.Unix(579484800, 123).UTC())),
		New("", "label", Ref("kg:E00000002")),
		New("", "unknown", Value{}),
		New("", "debt", Int(-1<<40)),
		New("", "tiny", Float(math.SmallestNonzeroFloat64)),
		NewRel("", "educated_at", "r1", "school", Ref("kg:E00000003")),
		NewRel("", "educated_at", "r1", "year", Int(2006)),
	)
	multi := Triple{Subject: adele.ID, Predicate: "genre", Object: String("soul"),
		Sources: []string{"musicdb", "wiki", "crawl"}, Trust: []float64{0.9, 0.75}}
	adele.Triples = append(adele.Triples, multi)

	intl := NewEntity("src:wiki/Q42-ü")
	intl.Add(
		New("", PredName, String("Дуглас Адамс — 道格拉斯")).WithLocale("ru").WithSource("wiki", 1),
		New("", PredSameAs, Ref("kg:E00000009")).WithSource("linker", 0.5),
		New("", "blob", String(strings.Repeat("x", 300))),
	)
	return []*Entity{adele, intl, NewEntity("kg:E00000004")}
}

func readGolden(t *testing.T, name string) [][]byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Fields(string(data)) {
		b, err := hex.DecodeString(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestGoldenEntityBytes pins the binary entity format: the committed bytes
// were produced by the marshal-into-a-growing-buffer encoder this package
// shipped with before AppendBinary, so any drift in MarshalBinary,
// AppendBinary or EncodedLen is a format change.
func TestGoldenEntityBytes(t *testing.T) {
	want := readGolden(t, "golden_entities.hex")
	ents := goldenEntities()
	if len(want) != len(ents) {
		t.Fatalf("golden has %d entities, fixture %d", len(want), len(ents))
	}
	for i, e := range ents {
		got, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("entity %d (%s): MarshalBinary moved\n got %x\nwant %x", i, e.ID, got, want[i])
		}
		if len(got) != cap(got) || len(got) != e.EncodedLen() {
			t.Errorf("entity %d: len %d cap %d EncodedLen %d; want one exact-size allocation", i, len(got), cap(got), e.EncodedLen())
		}
		prefix := []byte("prefix")
		app, err := e.AppendBinary(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(app[:len(prefix)], prefix) || !bytes.Equal(app[len(prefix):], want[i]) {
			t.Errorf("entity %d: AppendBinary moved or clobbered dst", i)
		}
		var back Entity
		if err := back.UnmarshalBinary(want[i]); err != nil {
			t.Fatalf("entity %d: golden bytes no longer decode: %v", i, err)
		}
		if !entitiesEqual(e, &back) {
			t.Errorf("entity %d: golden bytes decode to a different entity", i)
		}
	}
}
