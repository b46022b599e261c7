package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/triple"
	"saga/internal/workload"
)

func musicSource() *ingest.Source {
	return &ingest.Source{
		Name:     "musicdb",
		Importer: ingest.CSVImporter{},
		Transform: ingest.TransformConfig{
			IDColumn:    "id",
			MultiValued: []string{"genres"},
		},
		Align: ingest.AlignConfig{
			EntityType: "music_artist",
			Trust:      0.9,
			PGFs: []ingest.PGF{
				{Target: "name", Sources: []string{"name"}, Mode: ingest.ModeCopy},
				{Target: "genre", Sources: []string{"genres"}, Mode: ingest.ModeCopy},
				{Target: "popularity", Sources: []string{"pop"}, Mode: ingest.ModeCopy, Kind: triple.KindFloat},
			},
		},
	}
}

func TestEndToEndIngestServeQuery(t *testing.T) {
	p := newTestPlatform(t, Options{})
	v1 := "id,name,genres,pop\na1,Mira Solane,pop|soul,0.9\na2,Dax Verro,rock,0.7\n"
	stats, err := p.IngestSource(musicSource(), strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LinkedAdds != 2 || stats.NewEntities != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// All stores converged through the op log.
	if got := p.GraphReplica.Len(); got != 2 {
		t.Fatalf("replica entities = %d", got)
	}
	// Serve: stable view into the live store, then a search and a KGQ query.
	p.RefreshServing()
	if hits := p.Live.Serving().SearchText("mira solane", 1); len(hits) != 1 {
		t.Fatalf("served search = %v", hits)
	}
	res, err := p.Query(`entity(type="music_artist", name="Mira Solane") | attr("genre")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("genres = %v", res.Texts())
	}
	// Second version: popularity churn only (volatile) plus one new artist.
	v2 := "id,name,genres,pop\na1,Mira Solane,pop|soul,0.4\na2,Dax Verro,rock,0.7\na3,Lena Quoss,jazz,0.5\n"
	stats, err = p.IngestSource(musicSource(), strings.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LinkedAdds != 1 {
		t.Fatalf("incremental stats = %+v", stats)
	}
	if p.GraphReplica.Len() != 3 {
		t.Fatalf("replica after v2 = %d", p.GraphReplica.Len())
	}
}

func TestCrossSourceDeduplication(t *testing.T) {
	p := newTestPlatform(t, Options{})
	// Overlapping sources must be consumed in sequence: linking of the
	// second source runs against the KG view that already contains the
	// first source's fused entities (§2.4's fusion synchronization point).
	s1 := workload.SourceSpec{Name: "src1", Offset: 0, Count: 10, Seed: 1}
	s2 := workload.SourceSpec{Name: "src2", Offset: 5, Count: 10, Seed: 2}
	if _, err := p.ConsumeDelta(s1.Delta()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ConsumeDelta(s2.Delta()); err != nil {
		t.Fatal(err)
	}
	// Overlapping universe entities [5,10) must consolidate.
	id1, ok1 := p.KG.Lookup("src1:e7")
	id2, ok2 := p.KG.Lookup("src2:e7")
	if !ok1 || !ok2 {
		t.Fatal("links missing")
	}
	if id1 != id2 {
		t.Fatalf("universe entity 7 split: %s vs %s", id1, id2)
	}
	e := p.KG.Graph.Get(id1)
	if srcs := e.SourceSet(); len(srcs) != 2 {
		t.Fatalf("sources = %v", srcs)
	}
}

func TestLiveStreamOverStableGraph(t *testing.T) {
	p := newTestPlatform(t, Options{})
	teams := []string{"Northfield Comets", "Lakewood Pilots"}
	for _, e := range workload.TeamsGraph(teams) {
		p.KG.Graph.Put(e)
		p.GraphReplica.Put(e)
	}
	p.RefreshServing()
	p.BuildNERD()
	events := workload.StreamSpec{Games: 2, Updates: 10, Teams: teams, Seed: 4}.Events()
	for _, ev := range events {
		if _, err := p.LiveConstructor.Consume(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Streaming facts are queryable with stable-entity joins.
	res, err := p.Query(`entity(name="Northfield Comets") | in("home_team") | attr("home_score")`)
	if err != nil {
		t.Fatal(err)
	}
	// The team may or may not host a game in this sample; the query must at
	// least execute and return consistent shapes.
	if len(res.Values) != 0 && res.Values[0].Kind() != triple.KindInt {
		t.Fatalf("scores = %v", res.Texts())
	}
	total := 0
	for gi := 0; gi < 2; gi++ {
		if g := p.Live.Current().GetShared(live.LiveID("sportsfeed", "game"+string(rune('0'+gi)))); g != nil {
			total++
			if !g.First("home_team").IsRef() {
				t.Fatalf("game %d home team not linked to stable entity: %v", gi, g.First("home_team"))
			}
		}
	}
	if total == 0 {
		t.Fatal("no games in live store")
	}
}

func TestCurationFlowsToStableKG(t *testing.T) {
	p := newTestPlatform(t, Options{})
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 3, Seed: 5}.Delta()); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	kgID, _ := p.KG.Lookup("s:e0")
	ent := p.Live.Current().GetShared(kgID)
	var nameFact triple.Triple
	for _, tr := range ent.Triples {
		if tr.Predicate == triple.PredName {
			nameFact = tr
		}
	}
	if err := p.Curation.Decide(p.Live, live.Decision{
		Kind: live.DecisionEdit, Entity: kgID, Fact: nameFact, NewValue: triple.String("Corrected Name"),
	}); err != nil {
		t.Fatal(err)
	}
	// Hot fix visible immediately in the live index.
	if got := p.Live.Current().GetShared(kgID).Name(); got != "Corrected Name" {
		t.Fatalf("live name = %q", got)
	}
	n, err := p.ApplyCurationDecisions()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("applied = %d", n)
	}
	// Correction reached the stable graph and the serving stores.
	if got := p.KG.Graph.Get(kgID).Name(); got != "Corrected Name" {
		t.Fatalf("stable name = %q", got)
	}
	if got, _ := p.EntityStore.Get(kgID); got == nil || got.Name() != "Corrected Name" {
		t.Fatalf("entity store name = %v", got)
	}
}

// TestCurationPublishFailureHeals: a curation hot fix whose publish fails is
// queued like any failed publish, so the next publish point re-syncs it and
// the replica converges to the KG for the curated entity. The curation
// publish used to bypass the retry queue (and the publish hook): the error
// was returned, and the stores kept the old fact until the entity was next
// touched.
func TestCurationPublishFailureHeals(t *testing.T) {
	p := newTestPlatform(t, Options{})
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 3, Seed: 5}.Delta()); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	kgID, _ := p.KG.Lookup("s:e0")
	var nameFact triple.Triple
	for _, tr := range p.Live.Current().GetShared(kgID).Triples {
		if tr.Predicate == triple.PredName {
			nameFact = tr
		}
	}
	if err := p.Curation.Decide(p.Live, live.Decision{
		Kind: live.DecisionEdit, Entity: kgID, Fact: nameFact, NewValue: triple.String("Corrected Name"),
	}); err != nil {
		t.Fatal(err)
	}
	failErr := errors.New("injected publish failure")
	p.publishHook = func() error { return failErr }
	if n, err := p.ApplyCurationDecisions(); n != 1 || !errors.Is(err, failErr) {
		t.Fatalf("applied = %d, err = %v; want 1 and the injected failure", n, err)
	}
	if got := p.GraphReplica.Get(kgID).Name(); got == "Corrected Name" {
		t.Fatal("the replica took a hot fix whose publish failed")
	}
	p.publishHook = nil
	p.RefreshServing() // a later publish point
	want, _ := p.KG.Graph.Get(kgID).MarshalBinary()
	got, _ := p.GraphReplica.Get(kgID).MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatalf("replica %q differs from the KG %q after the retry", p.GraphReplica.Get(kgID).Name(), p.KG.Graph.Get(kgID).Name())
	}
	if !logged(t, p, want) {
		t.Fatal("the retried hot fix's record is not in the log")
	}
}

// logged reports whether some op's payload holds the entity record rec,
// frame for frame.
func logged(t *testing.T, p *Platform, rec []byte) bool {
	t.Helper()
	for _, op := range p.Engine.Log.Read(0, 0) {
		payload, err := p.Engine.Log.Payload(op.LSN)
		if err != nil {
			t.Fatal(err)
		}
		for len(payload) > 0 {
			frame, rest, err := triple.NextRecord(payload)
			if err != nil {
				t.Fatalf("lsn %d: %v", op.LSN, err)
			}
			if bytes.Equal(frame, rec) {
				return true
			}
			payload = rest
		}
	}
	return false
}

// TestCurationRenameReachesLinking: a curation hot fix writes the graph
// directly, so it must refresh the pipeline's KG-derived caches; a new source
// entity carrying the corrected name then links to the renamed entity through
// the block index.
func TestCurationRenameReachesLinking(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 4, Seed: 5}.Delta()); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	kgID, ok := p.KG.Lookup("s:e0")
	if !ok {
		t.Fatal("link missing")
	}
	var nameFact triple.Triple
	for _, tr := range p.Live.Current().GetShared(kgID).Triples {
		if tr.Predicate == triple.PredName {
			nameFact = tr
		}
	}
	if err := p.Curation.Decide(p.Live, live.Decision{
		Kind: live.DecisionEdit, Entity: kgID, Fact: nameFact, NewValue: triple.String("Corrected Name"),
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := p.ApplyCurationDecisions(); err != nil || n != 1 {
		t.Fatalf("applied = %d, err = %v", n, err)
	}
	e := triple.NewEntity("s2:x")
	e.Add(triple.New("", triple.PredType, triple.String("human")).WithSource("s2", 0.9))
	e.Add(triple.New("", triple.PredName, triple.String("Corrected Name")).WithSource("s2", 0.9))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s2", Added: []*triple.Entity{e}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.KG.Lookup("s2:x"); got != kgID {
		t.Fatalf("corrected-name entity linked to %q, want the renamed %q", got, kgID)
	}
}

func TestDurableOplogRecovery(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Options{Durability: DurabilityOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 4, Seed: 6}.Delta()); err != nil {
		t.Fatal(err)
	}
	lsn := p.Engine.Log.LastLSN()
	want := p.GraphReplica.Triples()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh platform over the same durability dir recovers to the same
	// state at Open — replay is Open's job, not the caller's.
	p2, err := Open(Options{Durability: DurabilityOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Engine.Log.LastLSN(); got != lsn {
		t.Fatalf("recovered lsn = %d, want %d", got, lsn)
	}
	if !reflect.DeepEqual(p2.GraphReplica.Triples(), want) {
		t.Fatal("replica after recovery differs from pre-close replica")
	}
	if p2.KG.Graph.Len() == 0 {
		t.Fatal("construction KG empty after recovery")
	}
}

func TestStats(t *testing.T) {
	p := newTestPlatform(t, Options{})
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 2, Seed: 7}.Delta()); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Graph.Entities == 0 || st.Links == 0 || st.LogLSN == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRefreshServingVisibleAtReturn: a serving read that starts after
// RefreshServing returns sees the refreshed view. live.Store.Serving reuses a
// snapshot younger than its staleness bound, so a read right after a refresh
// used to serve the view from before it.
func TestRefreshServingVisibleAtReturn(t *testing.T) {
	p := newTestPlatform(t, Options{})
	for r := 0; r < 2; r++ {
		spec := workload.SourceSpec{Name: "s", Count: 4, Offset: 4 * r, Seed: 5}
		if _, err := p.ConsumeDelta(spec.Delta()); err != nil {
			t.Fatal(err)
		}
		p.RefreshServing()
		// The read publishes (or reuses) a snapshot, so the next refresh
		// lands within the staleness bound of a serving snapshot.
		if got, want := p.Live.Serving().Len(), p.GraphReplica.Stats().Entities; got != want {
			t.Fatalf("refresh %d: serving view has %d entities, the replica %d", r, got, want)
		}
	}
}

// checkStoresMatchKG requires the graph replica and the entity store to hold
// exactly the KG's records, and a replay of the log from genesis to reach
// the KG.
func checkStoresMatchKG(t *testing.T, p *Platform, step string) {
	t.Helper()
	want := make(map[triple.EntityID][]byte)
	p.KG.Graph.RangeShared(func(e *triple.Entity) bool {
		b, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want[e.ID] = b
		return true
	})
	if got := storeRecords(t, p.EntityStore); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the entity store holds %d records, the KG %d, and they differ", step, len(got), len(want))
	}
	if !reflect.DeepEqual(p.GraphReplica.Triples(), p.KG.Graph.Triples()) {
		t.Fatalf("%s: the replica holds %d entities, the KG %d, and they differ", step, p.GraphReplica.Len(), p.KG.Graph.Len())
	}
	checkReplayMatchesKG(t, p, step)
}

// TestPublishFollowsKGAcrossBatchDeltas: a batch's deltas each link against
// the KG as it stood at batch start, so one delta can remove the last
// contribution to a KG entity while a later delta of the same batch, linked
// to it, re-creates it. What the batch publishes must be the KG's state after
// the whole batch — an upsert — not a delete that the stores and a replay of
// the log would apply while the KG keeps the entity.
func TestPublishFollowsKGAcrossBatchDeltas(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	a := workload.SourceSpec{Name: "a", Type: "band", Count: 1, Seed: 3}
	if _, err := p.ConsumeDelta(a.Delta()); err != nil {
		t.Fatal(err)
	}
	kgID, ok := p.KG.Lookup("a:e0")
	if !ok {
		t.Fatal("a:e0 did not link")
	}
	b := workload.SourceSpec{Name: "b", Type: "band", Count: 1, Seed: 3}
	if _, err := p.ConsumeDeltas([]ingest.Delta{
		{Source: "a", Deleted: []triple.EntityID{"a:e0"}},
		b.Delta(),
	}); err != nil {
		t.Fatal(err)
	}
	if got, ok := p.KG.Lookup("b:e0"); !ok || got != kgID || p.KG.Graph.GetShared(kgID) == nil {
		t.Fatalf("b:e0 linked to %q (ok=%v), KG holds %s: %v; the batch must re-create %s",
			got, ok, kgID, p.KG.Graph.GetShared(kgID) != nil, kgID)
	}
	checkStoresMatchKG(t, p, "delete then re-create")
}

// TestCurationEditAfterBlockEntity: an edit decision applied after a
// BlockEntity decision for the same entity re-creates it (Graph.Update on a
// missing entity), so the barrier must publish the entity, not its removal.
func TestCurationEditAfterBlockEntity(t *testing.T) {
	p := newTestPlatform(t, Options{})
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 3, Seed: 5}.Delta()); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	kgID, _ := p.KG.Lookup("s:e0")
	var nameFact triple.Triple
	for _, tr := range p.Live.Current().GetShared(kgID).Triples {
		if tr.Predicate == triple.PredName {
			nameFact = tr
		}
	}
	// An edit needs its target in the live store, so the hot fixes run edit
	// first; the drained decisions are ordered by entity then fact, which
	// puts the block (no fact) ahead of the edit.
	if err := p.Curation.Decide(p.Live, live.Decision{
		Kind: live.DecisionEdit, Entity: kgID, Fact: nameFact, NewValue: triple.String("Corrected Name"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Curation.Decide(p.Live, live.Decision{Kind: live.DecisionBlockEntity, Entity: kgID}); err != nil {
		t.Fatal(err)
	}
	if n, err := p.ApplyCurationDecisions(); err != nil || n != 2 {
		t.Fatalf("applied = %d, err = %v", n, err)
	}
	if p.KG.Graph.GetShared(kgID) == nil {
		t.Fatalf("the edit after the block did not re-create %s in the KG", kgID)
	}
	checkStoresMatchKG(t, p, "block then edit")
}
