package ingest

import (
	"reflect"
	"strings"
	"testing"

	"saga/internal/ontology"
	"saga/internal/triple"
)

func TestCSVImporter(t *testing.T) {
	data := "id,name,genres\na1,Adele,pop|soul\na2,Sia,pop\n"
	rows, err := CSVImporter{}.Import(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0]["name"] != "Adele" || rows[1]["genres"] != "pop" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCSVImporterShortRow(t *testing.T) {
	data := "id,name\na1\n"
	rows, err := CSVImporter{}.Import(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0]["name"] != "" {
		t.Fatalf("missing field should be empty, got %q", rows[0]["name"])
	}
}

func TestTSVImporter(t *testing.T) {
	data := "id\tname\nx\tThe Weeknd\n"
	rows, err := CSVImporter{Comma: '\t'}.Import(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0]["name"] != "The Weeknd" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestJSONLImporter(t *testing.T) {
	data := `{"id":"s1","title":"Hello","plays":123,"tags":["a","b"]}
{"id":"s2","title":"Halo","live":true}`
	rows, err := JSONLImporter{}.Import(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0]["plays"] != "123" || rows[0]["tags"] != "a|b" || rows[1]["live"] != "true" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestJSONImporter(t *testing.T) {
	data := `[{"id":"1","v":null},{"id":"2","v":"x"}]`
	rows, err := JSONImporter{}.Import(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0]["v"] != "" || rows[1]["v"] != "x" {
		t.Fatalf("rows = %v", rows)
	}
}

// TestJSONImportersKeepNumbers: a number keeps the digits it was written
// with. Decoded as float64, the two ids below became one, and a number out
// of float64's range failed the whole import.
func TestJSONImportersKeepNumbers(t *testing.T) {
	data := `[{"id":12345678901234567890,"n":[1.50,2],"o":{"x":12345678901234567891}},{"id":12345678901234567891,"big":1e400}]`
	rows, err := JSONImporter{}.Import(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{"id": "12345678901234567890", "n": "1.50|2", "o": `{"x":12345678901234567891}`},
		{"id": "12345678901234567891", "big": "1e400"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("json rows = %v, want %v", rows, want)
	}
	jsonl := strings.Join([]string{`{"id":12345678901234567890,"n":[1.50,2],"o":{"x":12345678901234567891}}`, `{"id":12345678901234567891,"big":1e400}`}, "\n")
	if rows, err = (JSONLImporter{}).Import(strings.NewReader(jsonl)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("jsonl rows = %v, want %v", rows, want)
	}
}

func TestTransformBasics(t *testing.T) {
	rows := []Row{
		{"id": "a2", "name": "Sia", "genres": "pop"},
		{"id": "a1", "name": "Adele", "genres": "pop|soul"},
	}
	ents, err := Transform(rows, TransformConfig{IDColumn: "id", MultiValued: []string{"genres"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].ID != "a1" || ents[1].ID != "a2" {
		t.Fatalf("entities not sorted by id: %v", ents)
	}
	if got := ents[0].Fields["genres"]; len(got) != 2 || got[0] != "pop" || got[1] != "soul" {
		t.Fatalf("multi-valued split = %v", got)
	}
}

func TestTransformIntegrityChecks(t *testing.T) {
	// Duplicate IDs rejected.
	_, err := Transform([]Row{{"id": "x"}, {"id": "x"}}, TransformConfig{IDColumn: "id"})
	if err == nil {
		t.Error("duplicate id accepted")
	}
	// Empty ID rejected.
	_, err = Transform([]Row{{"id": " "}}, TransformConfig{IDColumn: "id"})
	if err == nil {
		t.Error("empty id accepted")
	}
	// Missing IDColumn config rejected.
	_, err = Transform(nil, TransformConfig{})
	if err == nil {
		t.Error("missing IDColumn accepted")
	}
	// Schema predicates present even when absent from the row.
	ents, err := Transform([]Row{{"id": "x"}}, TransformConfig{IDColumn: "id", Schema: []string{"id", "name"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ents[0].Fields["name"]; !ok {
		t.Error("schema predicate 'name' missing from produced entity")
	}
	// Empty predicate name in schema rejected.
	_, err = Transform([]Row{{"id": "x"}}, TransformConfig{IDColumn: "id", Schema: []string{""}})
	if err == nil {
		t.Error("empty schema predicate accepted")
	}
}

func TestTransformAuxJoin(t *testing.T) {
	rows := []Row{{"id": "a1", "name": "Adele"}}
	aux := AuxDataset{
		Name:     "popularity",
		Rows:     []Row{{"artist_id": "a1", "score": "0.97"}},
		IDColumn: "artist_id",
		Prefix:   "pop_",
	}
	ents, err := Transform(rows, TransformConfig{IDColumn: "id", Aux: []AuxDataset{aux}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ents[0].Field("pop_score"); got != "0.97" {
		t.Fatalf("joined field = %q, want 0.97", got)
	}
}

func alignCfg() AlignConfig {
	return AlignConfig{
		Source:     "musicdb",
		EntityType: "music_artist",
		Trust:      0.85,
		PGFs: []PGF{
			{Target: "name", Sources: []string{"artist_name"}, Mode: ModeCopy},
			{Target: "genre", Sources: []string{"category"}, Mode: ModeCopy},
			{Target: "popularity", Sources: []string{"pop"}, Mode: ModeCopy, Kind: triple.KindFloat},
			{Target: "signed_to", Sources: []string{"label"}, Mode: ModeCopy, Kind: triple.KindRef},
		},
	}
}

func TestAlign(t *testing.T) {
	ents := []*SourceEntity{{
		ID: "a1",
		Fields: map[string][]string{
			"artist_name": {"Adele"},
			"category":    {"pop", "soul"},
			"pop":         {"0.97"},
			"label":       {"xl-recordings"},
		},
	}}
	out, err := Align(ents, alignCfg())
	if err != nil {
		t.Fatal(err)
	}
	e := out[0]
	if e.ID != "musicdb:a1" {
		t.Fatalf("entity id = %s", e.ID)
	}
	if e.Type() != "music_artist" {
		t.Fatalf("type = %s", e.Type())
	}
	if e.Name() != "Adele" {
		t.Fatalf("name = %s", e.Name())
	}
	if got := len(e.Get("genre")); got != 2 {
		t.Fatalf("genres = %d, want 2", got)
	}
	if got := e.First("popularity").Float64(); got != 0.97 {
		t.Fatalf("popularity = %f", got)
	}
	if got := e.First("signed_to").Ref(); got != "musicdb:xl-recordings" {
		t.Fatalf("ref = %s (should be namespaced)", got)
	}
	// Every fact must carry provenance.
	for _, tr := range e.Triples {
		if !tr.HasSource("musicdb") || tr.Confidence() == 0 {
			t.Fatalf("fact %v lacks provenance", tr)
		}
	}
}

func TestAlignConcatAndRelGroup(t *testing.T) {
	cfg := AlignConfig{
		Source:     "moviedb",
		EntityType: "movie",
		Trust:      0.8,
		PGFs: []PGF{
			{Target: "full_title", Sources: []string{"title", "sequel_number"}, Mode: ModeConcat, Sep: " "},
			{Target: "educated_at", Sources: []string{"edu_school", "edu_degree", "edu_year"},
				Mode: ModeRelGroup, RelPreds: []string{"school", "degree", "year"},
				RelKinds: []triple.Kind{triple.KindRef, triple.KindString, triple.KindInt}},
		},
	}
	ents := []*SourceEntity{{
		ID: "m1",
		Fields: map[string][]string{
			"title":         {"Cars"},
			"sequel_number": {"2"},
			"edu_school":    {"uw", "mit"},
			"edu_degree":    {"PhD", "BSc"},
			"edu_year":      {"2005", "1999"},
		},
	}}
	out, err := Align(ents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := out[0]
	if got := e.First("full_title").Text(); got != "Cars 2" {
		t.Fatalf("full_title = %q", got)
	}
	nodes := e.RelNodes()
	if len(nodes) != 2 {
		t.Fatalf("rel nodes = %d, want 2", len(nodes))
	}
	n0 := nodes[0]
	if n0.Attr("school").Ref() != "moviedb:uw" || n0.Attr("degree").Str() != "PhD" || n0.Attr("year").Int64() != 2005 {
		t.Fatalf("node 0 = %+v", n0)
	}
}

func TestAlignErrors(t *testing.T) {
	if _, err := Align(nil, AlignConfig{}); err == nil {
		t.Error("missing source accepted")
	}
	if _, err := Align(nil, AlignConfig{Source: "s"}); err == nil {
		t.Error("missing entity type accepted")
	}
	bad := AlignConfig{Source: "s", EntityType: "human", PGFs: []PGF{
		{Target: "birth_date", Sources: []string{"bd"}, Mode: ModeCopy, Kind: triple.KindInt},
	}}
	ents := []*SourceEntity{{ID: "x", Fields: map[string][]string{"bd": {"not-a-number"}}}}
	if _, err := Align(ents, bad); err == nil {
		t.Error("unparseable int accepted")
	}
}

func TestComputeDelta(t *testing.T) {
	ont := ontology.Default()
	mk := func(id, name string, pop float64) *triple.Entity {
		e := triple.NewEntity(triple.EntityID("src:" + id))
		e.AddFact(triple.PredType, triple.String("music_artist"))
		e.AddFact(triple.PredSourceID, triple.String(id))
		e.AddFact(triple.PredName, triple.String(name))
		e.AddFact("popularity", triple.Float(pop))
		return e
	}
	v1 := []*triple.Entity{mk("a", "Adele", 0.9), mk("b", "Sia", 0.8)}
	d1, snap1 := ComputeDelta("src", v1, nil, ont)
	if len(d1.Added) != 2 || len(d1.Updated) != 0 || len(d1.Deleted) != 0 {
		t.Fatalf("initial delta: %s", d1.Counts())
	}
	if len(d1.Volatile) != 2 {
		t.Fatalf("volatile dump = %d, want 2", len(d1.Volatile))
	}
	// Popularity-only change: no Added/Updated, volatile dump still emitted.
	v2 := []*triple.Entity{mk("a", "Adele", 0.5), mk("b", "Sia", 0.1)}
	d2, snap2 := ComputeDelta("src", v2, snap1, ont)
	if len(d2.Added) != 0 || len(d2.Updated) != 0 || len(d2.Deleted) != 0 {
		t.Fatalf("volatile-only delta leaked into stable partitions: %s", d2.Counts())
	}
	if len(d2.Volatile) != 2 {
		t.Fatalf("volatile dump = %d", len(d2.Volatile))
	}
	// Rename b, delete a, add c.
	v3 := []*triple.Entity{mk("b", "Sia Furler", 0.1), mk("c", "Mitski", 0.7)}
	d3, _ := ComputeDelta("src", v3, snap2, ont)
	if len(d3.Added) != 1 || d3.Added[0].ID != "src:c" {
		t.Fatalf("added = %v", d3.Added)
	}
	if len(d3.Updated) != 1 || d3.Updated[0].ID != "src:b" {
		t.Fatalf("updated = %v", d3.Updated)
	}
	if len(d3.Deleted) != 1 || d3.Deleted[0] != "src:a" {
		t.Fatalf("deleted = %v", d3.Deleted)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := Snapshot{"a": 1, "b": 2}
	var buf strings.Builder
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["a"] != 1 || got["b"] != 2 {
		t.Fatalf("round trip = %v", got)
	}
}

func TestSourceRunEndToEnd(t *testing.T) {
	ont := ontology.Default()
	src := &Source{
		Name:     "musicdb",
		Importer: CSVImporter{},
		Transform: TransformConfig{
			IDColumn:    "id",
			MultiValued: []string{"genres"},
		},
		Align: AlignConfig{
			EntityType: "music_artist",
			Trust:      0.9,
			PGFs: []PGF{
				{Target: "name", Sources: []string{"name"}, Mode: ModeCopy},
				{Target: "genre", Sources: []string{"genres"}, Mode: ModeCopy},
				{Target: "popularity", Sources: []string{"pop"}, Mode: ModeCopy, Kind: triple.KindFloat},
			},
		},
	}
	v1 := "id,name,genres,pop\na1,Adele,pop|soul,0.9\na2,Sia,pop,0.8\n"
	res1, err := src.Run(strings.NewReader(v1), nil, ont)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Delta.Added) != 2 {
		t.Fatalf("first run: %s", res1.Delta.Counts())
	}
	v2 := "id,name,genres,pop\na1,Adele,pop|soul,0.2\na3,Mitski,indie,0.7\n"
	res2, err := src.Run(strings.NewReader(v2), res1.Snapshot, ont)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Delta.Added) != 1 || len(res2.Delta.Deleted) != 1 || len(res2.Delta.Updated) != 0 {
		t.Fatalf("second run: %s", res2.Delta.Counts())
	}
	var buf strings.Builder
	if err := Export(&buf, res2.Aligned); err != nil {
		t.Fatal(err)
	}
	back, err := triple.ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("export round trip = %d entities", len(back))
	}
}
