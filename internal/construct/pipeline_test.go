package construct

import (
	"fmt"
	"testing"
	"time"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
)

// sourceArtist builds an aligned source entity the way ingest would.
func sourceArtist(source, local, name string, aliases ...string) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(source + ":" + local))
	add := func(p string, v triple.Value) { e.Add(triple.New("", p, v).WithSource(source, 0.9)) }
	add(triple.PredType, triple.String("music_artist"))
	add(triple.PredSourceID, triple.String(local))
	add(triple.PredName, triple.String(name))
	for _, a := range aliases {
		add(triple.PredAlias, triple.String(a))
	}
	return e
}

func TestPipelineAddLinksDuplicates(t *testing.T) {
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default())
	delta := ingest.Delta{
		Source: "musicdb",
		Added: []*triple.Entity{
			sourceArtist("musicdb", "a1", "Adele Adkins", "Adele"),
			sourceArtist("musicdb", "a2", "Adele Adkins"), // in-source duplicate
			sourceArtist("musicdb", "a3", "Billie Eilish"),
		},
	}
	stats, err := p.ConsumeDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LinkedAdds != 3 {
		t.Fatalf("linked adds = %d", stats.LinkedAdds)
	}
	if stats.NewEntities != 2 {
		t.Fatalf("new entities = %d, want 2 (duplicates consolidated)", stats.NewEntities)
	}
	id1, ok1 := kg.Lookup("musicdb:a1")
	id2, ok2 := kg.Lookup("musicdb:a2")
	if !ok1 || !ok2 || id1 != id2 {
		t.Fatalf("duplicates not consolidated: %s vs %s", id1, id2)
	}
	// same_as provenance recorded on the KG entity.
	e := kg.Graph.Get(id1)
	sameAs := e.Get(triple.PredSameAs)
	if len(sameAs) != 2 {
		t.Fatalf("same_as facts = %d, want 2", len(sameAs))
	}
}

func TestPipelineCrossSourceLinking(t *testing.T) {
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default())
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "src1",
		Added:  []*triple.Entity{sourceArtist("src1", "x", "Frank Ocean")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "src2",
		Added:  []*triple.Entity{sourceArtist("src2", "y", "Frank Ocean")},
	}); err != nil {
		t.Fatal(err)
	}
	id1, _ := kg.Lookup("src1:x")
	id2, _ := kg.Lookup("src2:y")
	if id1 != id2 {
		t.Fatalf("cross-source entities not linked: %s vs %s", id1, id2)
	}
	e := kg.Graph.Get(id1)
	if srcs := e.SourceSet(); len(srcs) != 2 {
		t.Fatalf("sources = %v", srcs)
	}
	if kg.Graph.Len() != 1 {
		t.Fatalf("graph entities = %d, want 1", kg.Graph.Len())
	}
}

func TestPipelineUpdateReplacesSourceFacts(t *testing.T) {
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default())
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "s",
		Added:  []*triple.Entity{sourceArtist("s", "a", "Old Name")},
	}); err != nil {
		t.Fatal(err)
	}
	kgID, _ := kg.Lookup("s:a")
	stats, err := p.ConsumeDelta(ingest.Delta{
		Source:  "s",
		Updated: []*triple.Entity{sourceArtist("s", "a", "New Name")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Updated != 1 || stats.LinkedAdds != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	e := kg.Graph.Get(kgID)
	names := e.Get(triple.PredName)
	if len(names) != 1 || names[0].Str() != "New Name" {
		t.Fatalf("names after update = %v", names)
	}
}

func TestPipelineDeleteRemovesContribution(t *testing.T) {
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default())
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "s1", Added: []*triple.Entity{sourceArtist("s1", "a", "Solo Artist")},
	}); err != nil {
		t.Fatal(err)
	}
	kgID, _ := kg.Lookup("s1:a")
	stats, err := p.ConsumeDelta(ingest.Delta{Source: "s1", Deleted: []triple.EntityID{"s1:a"}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if kg.Graph.Has(kgID) {
		t.Fatal("entity should be gone after sole source deleted")
	}
	if _, ok := kg.Lookup("s1:a"); ok {
		t.Fatal("link should be dropped")
	}
}

func TestPipelineVolatileOverwrite(t *testing.T) {
	ont := ontology.Default()
	kg := NewKG()
	p := NewPipeline(kg, ont)
	add := sourceArtist("s", "a", "Artist")
	vol := triple.NewEntity("s:a")
	vol.Add(triple.New("", "popularity", triple.Float(0.5)).WithSource("s", 0.9))
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "s", Added: []*triple.Entity{add}, Volatile: []*triple.Entity{vol},
	}); err != nil {
		t.Fatal(err)
	}
	kgID, _ := kg.Lookup("s:a")
	if got := kg.Graph.Get(kgID).First("popularity").Float64(); got != 0.5 {
		t.Fatalf("popularity = %f", got)
	}
	// Volatile-only refresh.
	vol2 := triple.NewEntity("s:a")
	vol2.Add(triple.New("", "popularity", triple.Float(0.9)).WithSource("s", 0.9))
	stats, err := p.ConsumeDelta(ingest.Delta{Source: "s", Volatile: []*triple.Entity{vol2}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Volatile != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	pops := kg.Graph.Get(kgID).Get("popularity")
	if len(pops) != 1 || pops[0].Float64() != 0.9 {
		t.Fatalf("popularity after overwrite = %v", pops)
	}
}

func TestPipelineObjectResolution(t *testing.T) {
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default())
	// A song referencing its artist within the same batch.
	song := triple.NewEntity("s:song1")
	song.Add(triple.New("", triple.PredType, triple.String("song")).WithSource("s", 0.9))
	song.Add(triple.New("", triple.PredSourceID, triple.String("song1")).WithSource("s", 0.9))
	song.Add(triple.New("", triple.PredName, triple.String("Hello")).WithSource("s", 0.9))
	song.Add(triple.New("", "performed_by", triple.Ref("s:artist1")).WithSource("s", 0.9))
	artist := sourceArtist("s", "artist1", "Adele")
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Added: []*triple.Entity{song, artist}}); err != nil {
		t.Fatal(err)
	}
	songKG, _ := kg.Lookup("s:song1")
	artistKG, _ := kg.Lookup("s:artist1")
	got := kg.Graph.Get(songKG).First("performed_by").Ref()
	if got != artistKG {
		t.Fatalf("performed_by = %s, want %s (in-batch OBR)", got, artistKG)
	}
	// A dangling reference creates a stub.
	song2 := triple.NewEntity("s:song2")
	song2.Add(triple.New("", triple.PredType, triple.String("song")).WithSource("s", 0.9))
	song2.Add(triple.New("", triple.PredSourceID, triple.String("song2")).WithSource("s", 0.9))
	song2.Add(triple.New("", triple.PredName, triple.String("Halo")).WithSource("s", 0.9))
	song2.Add(triple.New("", "part_of_album", triple.Ref("s:unknown-album")).WithSource("s", 0.9))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Added: []*triple.Entity{song2}}); err != nil {
		t.Fatal(err)
	}
	song2KG, _ := kg.Lookup("s:song2")
	ref := kg.Graph.Get(song2KG).First("part_of_album").Ref()
	if !ref.IsKG() {
		t.Fatalf("dangling ref not resolved: %s", ref)
	}
	stub := kg.Graph.Get(ref)
	if stub == nil || stub.Name() != "unknown album" {
		t.Fatalf("stub = %+v", stub)
	}
	if stub.Type() != "album" {
		t.Fatalf("stub type = %s, want album (from ontology RefType)", stub.Type())
	}
}

func TestPipelineParallelConsumeConverges(t *testing.T) {
	// Ten disjoint sources consumed in parallel must produce exactly the
	// entities of the union with no data races or lost updates.
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default())
	firsts := []string{"Amara", "Bruno", "Chidi", "Daphne", "Emeka", "Farida", "Goran", "Hana",
		"Ivan", "Jun", "Kwame", "Leila", "Marco", "Nadia", "Omar", "Priya", "Quinn", "Rosa", "Sven", "Tala"}
	lasts := []string{"Okafor", "Lindqvist", "Marchetti", "Novak", "Tanaka",
		"Haddad", "Ferreira", "Kowalski", "Djalo", "Petrov"}
	var deltas []ingest.Delta
	for s := 0; s < 10; s++ {
		src := fmt.Sprintf("src%d", s)
		var added []*triple.Entity
		for i := 0; i < 20; i++ {
			added = append(added, sourceArtist(src, fmt.Sprintf("e%d", i), firsts[i]+" "+lasts[s]))
		}
		deltas = append(deltas, ingest.Delta{Source: src, Added: added})
	}
	stats, err := p.Consume(deltas)
	if err != nil {
		t.Fatal(err)
	}
	totalAdds := 0
	for _, s := range stats {
		totalAdds += s.LinkedAdds
	}
	if totalAdds != 200 {
		t.Fatalf("adds = %d", totalAdds)
	}
	if got := kg.Graph.Len(); got != 200 {
		t.Fatalf("graph entities = %d, want 200 (disjoint names)", got)
	}
	if got := kg.LinkCount(); got != 200 {
		t.Fatalf("links = %d", got)
	}
}

func TestPipelineConflictsDrain(t *testing.T) {
	ont := ontology.Default()
	kg := NewKG()
	p := NewPipeline(kg, ont)
	a := sourceArtist("s1", "a", "Prince")
	a.Add(triple.New("", "birth_date", triple.Time(mustTime(t, "1958-06-07"))).WithSource("s1", 0.9))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s1", Added: []*triple.Entity{a}}); err != nil {
		t.Fatal(err)
	}
	b := sourceArtist("s2", "b", "Prince")
	b.Add(triple.New("", "birth_date", triple.Time(mustTime(t, "1960-01-01"))).WithSource("s2", 0.4))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s2", Added: []*triple.Entity{b}}); err != nil {
		t.Fatal(err)
	}
	conflicts := p.DrainConflicts()
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v", conflicts)
	}
	if again := p.DrainConflicts(); len(again) != 0 {
		t.Fatal("drain should clear")
	}
}

func mustTime(t *testing.T, s string) time.Time {
	t.Helper()
	tm, err := time.Parse("2006-01-02", s)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}
