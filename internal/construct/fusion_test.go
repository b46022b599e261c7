package construct

import (
	"fmt"
	"testing"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

func TestFuseSimpleFactsOuterJoin(t *testing.T) {
	ont := ontology.Default()
	g := triple.NewGraph()
	base := triple.NewEntity("kg:E1")
	base.Add(triple.New("kg:E1", triple.PredName, triple.String("Adele")).WithSource("src1", 0.9))
	base.Add(triple.New("kg:E1", "genre", triple.String("pop")).WithSource("src1", 0.9))
	g.Put(base)

	f := &Fuser{Ont: ont}
	in := triple.NewEntity("kg:E1")
	in.Add(triple.New("kg:E1", triple.PredName, triple.String("Adele")).WithSource("src2", 0.8))
	in.Add(triple.New("kg:E1", "genre", triple.String("soul")).WithSource("src2", 0.8))
	conflicts := f.FuseEntity(g, in)
	if len(conflicts) != 0 {
		t.Fatalf("unexpected conflicts: %v", conflicts)
	}
	got := g.Get("kg:E1")
	// Name now carries both sources; genre has both values.
	for _, tr := range got.Triples {
		if tr.Predicate == triple.PredName {
			if len(tr.Sources) != 2 {
				t.Fatalf("name sources = %v", tr.Sources)
			}
		}
	}
	if n := len(got.Get("genre")); n != 2 {
		t.Fatalf("genres = %d, want 2", n)
	}
}

func TestFuseFunctionalConflictTruthDiscovery(t *testing.T) {
	ont := ontology.Default()
	g := triple.NewGraph()
	base := triple.NewEntity("kg:E1")
	base.Add(triple.New("kg:E1", triple.PredType, triple.String("song")).WithSource("a", 0.9))
	base.Add(triple.New("kg:E1", "release_year", triple.Int(1999)).WithSource("a", 0.9))
	base.Add(triple.New("kg:E1", "release_year", triple.Int(1999)).WithSource("b", 0.9))
	g.Put(base)

	f := &Fuser{Ont: ont}
	in := triple.NewEntity("kg:E1")
	in.Add(triple.New("kg:E1", "release_year", triple.Int(2001)).WithSource("c", 0.5))
	conflicts := f.FuseEntity(g, in)
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v", conflicts)
	}
	c := conflicts[0]
	if c.Kept.Int64() != 1999 || len(c.Dropped) != 1 || c.Dropped[0].Int64() != 2001 {
		t.Fatalf("conflict = %+v", c)
	}
	got := g.Get("kg:E1")
	years := got.Get("release_year")
	if len(years) != 1 || years[0].Int64() != 1999 {
		t.Fatalf("years after fusion = %v", years)
	}
}

func TestFuseRelationshipNodeMerge(t *testing.T) {
	ont := ontology.Default()
	g := triple.NewGraph()
	base := triple.NewEntity("kg:E1")
	base.Add(triple.NewRel("kg:E1", "educated_at", "r1", "school", triple.Ref("kg:E9")).WithSource("a", 0.9))
	base.Add(triple.NewRel("kg:E1", "educated_at", "r1", "degree", triple.String("PhD")).WithSource("a", 0.9))
	g.Put(base)

	f := &Fuser{Ont: ont}
	// Incoming node shares school+degree → merges into r1, contributing year.
	in := triple.NewEntity("kg:E1")
	in.Add(triple.NewRel("kg:E1", "educated_at", "x7", "school", triple.Ref("kg:E9")).WithSource("b", 0.8))
	in.Add(triple.NewRel("kg:E1", "educated_at", "x7", "degree", triple.String("PhD")).WithSource("b", 0.8))
	in.Add(triple.NewRel("kg:E1", "educated_at", "x7", "year", triple.Int(2005)).WithSource("b", 0.8))
	f.FuseEntity(g, in)
	got := g.Get("kg:E1")
	nodes := got.RelNodes()
	if len(nodes) != 1 {
		t.Fatalf("nodes = %d, want 1 (merged)", len(nodes))
	}
	if nodes[0].RelID != "r1" {
		t.Fatalf("merged node id = %s", nodes[0].RelID)
	}
	if nodes[0].Attr("year").Int64() != 2005 {
		t.Fatal("merged node missing contributed year")
	}
	// A dissimilar node stays separate.
	in2 := triple.NewEntity("kg:E1")
	in2.Add(triple.NewRel("kg:E1", "educated_at", "z1", "school", triple.Ref("kg:E42")).WithSource("c", 0.8))
	in2.Add(triple.NewRel("kg:E1", "educated_at", "z1", "degree", triple.String("BSc")).WithSource("c", 0.8))
	f.FuseEntity(g, in2)
	if nodes := g.Get("kg:E1").RelNodes(); len(nodes) != 2 {
		t.Fatalf("nodes after dissimilar fuse = %d, want 2", len(nodes))
	}
}

func TestRemoveSource(t *testing.T) {
	g := triple.NewGraph()
	e := triple.NewEntity("kg:E1")
	e.Add(triple.New("kg:E1", triple.PredName, triple.String("X")).WithSource("a", 0.9).MergeProvenance(
		triple.New("kg:E1", triple.PredName, triple.String("X")).WithSource("b", 0.8)))
	e.Add(triple.New("kg:E1", "genre", triple.String("pop")).WithSource("a", 0.9))
	g.Put(e)
	if deleted := RemoveSource(g, "kg:E1", "a"); deleted {
		t.Fatal("entity should survive, source b still contributes")
	}
	got := g.Get("kg:E1")
	if len(got.Triples) != 1 {
		t.Fatalf("facts = %d, want 1 (genre from a removed, name kept via b)", len(got.Triples))
	}
	if got.Triples[0].HasSource("a") {
		t.Fatal("source a still attributed")
	}
	if deleted := RemoveSource(g, "kg:E1", "b"); !deleted {
		t.Fatal("entity should be deleted after last source removed")
	}
	if g.Has("kg:E1") {
		t.Fatal("entity still present")
	}
}

func TestApplyVolatileOverwrite(t *testing.T) {
	ont := ontology.Default()
	g := triple.NewGraph()
	e := triple.NewEntity("kg:E1")
	e.Add(triple.New("kg:E1", triple.PredName, triple.String("Song")).WithSource("a", 0.9))
	e.Add(triple.New("kg:E1", "play_count", triple.Int(100)).WithSource("a", 0.9))
	e.Add(triple.New("kg:E1", "play_count", triple.Int(90)).WithSource("b", 0.9))
	g.Put(e)

	vol := triple.NewEntity("src:s1")
	vol.Add(triple.New("src:s1", "play_count", triple.Int(250)).WithSource("a", 0.9))
	ApplyVolatileOverwrite(g, "kg:E1", "a", vol, ont)

	got := g.Get("kg:E1")
	counts := got.Get("play_count")
	if len(counts) != 2 {
		t.Fatalf("play counts = %v", counts)
	}
	seen := map[int64]bool{}
	for _, c := range counts {
		seen[c.Int64()] = true
	}
	if !seen[250] || !seen[90] {
		t.Fatalf("overwrite wrong: %v (want a's 100→250, b's 90 kept)", counts)
	}
	if got.Name() != "Song" {
		t.Fatal("stable fact touched by volatile overwrite")
	}
}

// fusePayload builds a linked payload entity for the batch-fusion tests.
func fusePayload(id triple.EntityID, source string, facts map[string]triple.Value) *triple.Entity {
	e := triple.NewEntity(id)
	for p, v := range facts {
		e.Add(triple.New(id, p, v).WithSource(source, 0.85))
	}
	return e
}

// TestFuseBatchSingleOpMatchesFuseEntity: for one payload, FuseBatch and
// FuseEntity must write identical entities and report identical conflicts.
func TestFuseBatchSingleOpMatchesFuseEntity(t *testing.T) {
	ont := ontology.Default()
	build := func() *triple.Graph {
		g := triple.NewGraph()
		base := triple.NewEntity("kg:E1")
		base.Add(triple.New("kg:E1", triple.PredType, triple.String("song")).WithSource("a", 0.9))
		base.Add(triple.New("kg:E1", "release_year", triple.Int(1999)).WithSource("a", 0.9))
		base.Add(triple.New("kg:E1", "genre", triple.String("pop")).WithSource("a", 0.9))
		g.Put(base)
		return g
	}
	payload := func() *triple.Entity {
		return fusePayload("kg:E1", "c", map[string]triple.Value{
			"release_year": triple.Int(2001),
			"genre":        triple.String("soul"),
			"duration_sec": triple.Int(214),
		})
	}
	f := &Fuser{Ont: ont}
	gEnt, gBatch := build(), build()
	cEnt := f.FuseEntity(gEnt, payload())
	cBatch := f.FuseBatch(gBatch, "kg:E1", []FuseOp{{Incoming: payload()}})
	if len(cEnt) != len(cBatch) {
		t.Fatalf("conflicts diverged: %v vs %v", cEnt, cBatch)
	}
	a, b := gEnt.Get("kg:E1"), gBatch.Get("kg:E1")
	if len(a.Triples) != len(b.Triples) {
		t.Fatalf("triple counts diverged: %d vs %d", len(a.Triples), len(b.Triples))
	}
	for i := range a.Triples {
		if triple.CompareTriples(a.Triples[i], b.Triples[i]) != 0 {
			t.Fatalf("triple %d diverged:\n%v\n%v", i, a.Triples[i], b.Triples[i])
		}
	}
}

// TestFuseBatchMatchesSequentialFuses: merging several conflict-free payloads
// through one FuseBatch must equal fusing them one FuseEntity at a time.
func TestFuseBatchMatchesSequentialFuses(t *testing.T) {
	ont := ontology.Default()
	payloads := func() []*triple.Entity {
		return []*triple.Entity{
			fusePayload("kg:E1", "s", map[string]triple.Value{
				triple.PredType: triple.String("human"),
				triple.PredName: triple.String("Nina Simone"),
				"occupation":    triple.String("singer"),
			}),
			fusePayload("kg:E1", "s", map[string]triple.Value{
				triple.PredName: triple.String("Nina Simone"),
				"occupation":    triple.String("pianist"),
			}),
			fusePayload("kg:E1", "s", map[string]triple.Value{
				triple.PredAlias: triple.String("High Priestess of Soul"),
				"occupation":     triple.String("activist"),
			}),
		}
	}
	f := &Fuser{Ont: ont}
	gSeq, gBatch := triple.NewGraph(), triple.NewGraph()
	for _, p := range payloads() {
		if c := f.FuseEntity(gSeq, p); len(c) != 0 {
			t.Fatalf("workload should be conflict-free, got %v", c)
		}
	}
	var ops []FuseOp
	for _, p := range payloads() {
		ops = append(ops, FuseOp{Incoming: p})
	}
	if c := f.FuseBatch(gBatch, "kg:E1", ops); len(c) != 0 {
		t.Fatalf("workload should be conflict-free, got %v", c)
	}
	a, b := gSeq.Get("kg:E1"), gBatch.Get("kg:E1")
	if len(a.Triples) != len(b.Triples) {
		t.Fatalf("triple counts diverged: %d vs %d", len(a.Triples), len(b.Triples))
	}
	for i := range a.Triples {
		if triple.CompareTriples(a.Triples[i], b.Triples[i]) != 0 {
			t.Fatalf("triple %d diverged:\n%v\n%v", i, a.Triples[i], b.Triples[i])
		}
	}
	if n := len(b.Get("occupation")); n != 3 {
		t.Fatalf("occupations = %d, want 3", n)
	}
}

// TestFuseBatchStripSource: an update op strips the source's stable facts
// before its payload merges, leaving its volatile facts alone, and truth
// discovery sees the whole batch's claims for a contested slot at once.
func TestFuseBatchStripSource(t *testing.T) {
	ont := ontology.Default()
	g := triple.NewGraph()
	base := triple.NewEntity("kg:E1")
	base.Add(triple.New("kg:E1", triple.PredType, triple.String("song")).WithSource("keep", 0.9))
	base.Add(triple.New("kg:E1", "genre", triple.String("stale")).WithSource("upd", 0.9))
	base.Add(triple.New("kg:E1", "play_count", triple.Int(7)).WithSource("upd", 0.9)) // volatile: must survive
	g.Put(base)

	f := &Fuser{Ont: ont}
	in := fusePayload("kg:E1", "upd", map[string]triple.Value{"genre": triple.String("fresh")})
	if c := f.FuseBatch(g, "kg:E1", []FuseOp{{StripSource: "upd", Incoming: in}}); len(c) != 0 {
		t.Fatalf("conflicts = %v", c)
	}
	got := g.Get("kg:E1")
	genres := got.Get("genre")
	if len(genres) != 1 || genres[0].Str() != "fresh" {
		t.Fatalf("genres after strip+merge = %v", genres)
	}
	if got.First("play_count").Int64() != 7 {
		t.Fatal("volatile partition must survive a stable strip")
	}
	if got.First(triple.PredType).Str() != "song" {
		t.Fatal("other sources' facts must survive the strip")
	}
}

// TestFusionStatsAmortizeSharedTargets: a batch whose payloads pile onto
// shared targets — each real-world entity arrives as perTarget records with
// one name, so linking clusters them onto one KG entity — fuses every target
// once, with at least two payloads per fused target.
func TestFusionStatsAmortizeSharedTargets(t *testing.T) {
	const count, perTarget = 10, 3
	d := ingest.Delta{Source: "musicdb"}
	for u := 0; u < count; u++ {
		for dup := 0; dup < perTarget; dup++ {
			d.Added = append(d.Added, sourceArtist("musicdb", fmt.Sprintf("a%d-r%d", u, dup), workload.PersonName(u)))
		}
	}
	p := NewPipeline(NewKG(), ontology.Default())
	if _, err := p.Consume([]ingest.Delta{d}); err != nil {
		t.Fatal(err)
	}
	fs := p.FusionStats()
	if fs.Targets != count {
		t.Fatalf("fused %d targets, want %d: duplicate records did not share targets", fs.Targets, count)
	}
	if fs.Payloads < 2*fs.Targets {
		t.Fatalf("fusion stats %+v: want at least 2 payloads per target", fs)
	}
}
