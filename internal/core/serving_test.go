package core

// Platform-level coverage of the serving refresh: RefreshServing loads the
// stable view into the live store as a diff against what the store holds,
// handing it the replica's frozen records. The result must equal a full
// reload, share one record per entity with the replica, keep every earlier
// snapshot frozen, and be no write at all when nothing changed.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"saga/internal/importance"
	"saga/internal/live"
	"saga/internal/live/livetest"
	"saga/internal/triple"
)

// randomArtists renders a music CSV over a random subset of eight artists
// with random names and popularity, so successive ingests of it add, change
// and delete entities.
func randomArtists(r *rand.Rand) string {
	names := []string{"Mira Solane", "Dax Verro", "Ila Brandt", "Oren Vale", "Tove Lund", "Kai Moreau"}
	var b strings.Builder
	b.WriteString("id,name,genres,pop\n")
	for i := 0; i < 8; i++ {
		if r.Intn(4) == 0 {
			continue
		}
		fmt.Fprintf(&b, "a%d,%s,%s,%.1f\n", i, names[(i+r.Intn(2))%len(names)],
			[]string{"pop", "rock|soul", "jazz"}[r.Intn(3)], float64(r.Intn(10))/10)
	}
	return b.String()
}

// fullReload builds a fresh live store from the replica the way every
// refresh did before refreshes became diffs: one Put per stable entity.
func fullReload(p *Platform) *live.Store {
	scores := importance.Compute(p.GraphReplica, importance.Options{})
	want := live.NewStore()
	p.GraphReplica.RangeShared(func(e *triple.Entity) bool {
		want.Put(e, scores[e.ID].Importance)
		return true
	})
	return want
}

// TestRefreshServingMatchesFullReload: after random feed batches (adds,
// updates, volatile overwrites, deletions) and curation hot fixes, every
// refresh leaves the live store answering every View method exactly as a
// fresh store loaded from the replica in full.
func TestRefreshServingMatchesFullReload(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			p := newTestPlatform(t, Options{})
			batches := churnStream(6, 3, 6)
			var probes []*triple.Entity
			for round := 0; round < 12; round++ {
				if round%2 == 0 && round/2 < len(batches) {
					if _, err := p.ConsumeDeltas(batches[round/2]); err != nil {
						t.Fatal(err)
					}
				} else if _, err := p.IngestSource(musicSource(), strings.NewReader(randomArtists(r))); err != nil {
					t.Fatal(err)
				}
				if r.Intn(3) == 0 {
					continue
				}
				if ids := p.GraphReplica.IDs(); len(ids) > 0 && r.Intn(2) == 0 {
					id := ids[r.Intn(len(ids))]
					if e := p.Live.Current().GetShared(id); e != nil {
						if err := p.Curation.Decide(p.Live, live.Decision{Kind: live.DecisionEdit, Entity: id,
							Fact: e.Triples[r.Intn(len(e.Triples))], NewValue: triple.String("hot fix")}); err != nil {
							t.Fatal(err)
						}
						probes = append(probes, p.Live.Current().GetShared(id))
					}
				}
				p.RefreshServing()
				p.GraphReplica.RangeShared(func(e *triple.Entity) bool {
					probes = append(probes, e)
					return true
				})
				if err := livetest.Diff(p.Live.Current(), fullReload(p).Current(), probes); err != nil {
					t.Fatalf("round %d: refreshed live store differs from a full reload: %v", round, err)
				}
			}
		})
	}
}

// TestRefreshServingSharesReplicaRecords is the census of resident records:
// publishing hands the KG's records to the replica, and after a refresh the
// live store holds the replica's record itself for every stable entity, so
// the construction KG, the replica and the live store hold one record per
// entity between them.
func TestRefreshServingSharesReplicaRecords(t *testing.T) {
	p := newTestPlatform(t, Options{})
	for _, b := range churnStream(3, 2, 6) {
		if _, err := p.ConsumeDeltas(b); err != nil {
			t.Fatal(err)
		}
	}
	p.RefreshServing()
	ids := p.GraphReplica.IDs()
	if len(ids) == 0 {
		t.Fatal("empty replica")
	}
	for _, id := range ids {
		records := map[*triple.Entity]bool{
			p.KG.Graph.GetShared(id):       true,
			p.GraphReplica.GetShared(id):   true,
			p.Live.Current().GetShared(id): true,
		}
		if p.Live.Current().GetShared(id) != p.GraphReplica.GetShared(id) {
			t.Fatalf("%s: the live store holds a copy of the replica's record", id)
		}
		if len(records) != 1 {
			t.Fatalf("%s: %d distinct resident records, want 1", id, len(records))
		}
	}
}

// TestRefreshServingUnchangedKeepsVersion: a refresh with no batch since the
// last one is not a write, so the live store's version stays put and the
// query engine's (plan, version) result cache keeps hitting.
func TestRefreshServingUnchangedKeepsVersion(t *testing.T) {
	p := newTestPlatform(t, Options{})
	if _, err := p.ConsumeDeltas(churnStream(1, 2, 6)[0]); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	v := p.Live.Version()
	const q = `entity(type="kind00") | attr("popularity")`
	if _, err := p.Query(q); err != nil {
		t.Fatal(err)
	}
	hits, _ := p.LiveEngine.CacheStats()
	p.RefreshServing()
	if got := p.Live.Version(); got != v {
		t.Fatalf("a refresh with nothing new moved the live version %d -> %d", v, got)
	}
	if _, err := p.Query(q); err != nil {
		t.Fatal(err)
	}
	if after, _ := p.LiveEngine.CacheStats(); after != hits+1 {
		t.Fatalf("result cache hits %d -> %d across an unchanged refresh, want one more", hits, after)
	}
}

// frozenCut is one snapshot's records with their encodings at capture time.
type frozenCut struct {
	records []*triple.Entity
	bytes   [][]byte
}

func captureCut(t *testing.T, get func(triple.EntityID) *triple.Entity, ids []triple.EntityID) frozenCut {
	var c frozenCut
	for _, id := range ids {
		if e := get(id); e != nil {
			b, err := e.MarshalBinary()
			if err != nil {
				t.Error(err)
			}
			c.records = append(c.records, e)
			c.bytes = append(c.bytes, b)
		}
	}
	return c
}

// TestServingRecordsStayFrozen: the live store and the replica share
// records, so no writer may touch one in place. Feed batches with refreshes,
// streaming Puts, curation hot fixes and snapshot readers run at once; every
// live and replica snapshot a reader took must still encode to the bytes it
// had when taken. Run under -race, an in-place write also races the
// readers' encodes.
func TestServingRecordsStayFrozen(t *testing.T) {
	p := newTestPlatform(t, Options{})
	batches := churnStream(6, 3, 6)
	if _, err := p.ConsumeDeltas(batches[0]); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	ids := p.GraphReplica.IDs()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	loop(func(i int) {
		if _, err := p.LiveConstructor.Consume(live.Event{Source: "scores", Type: "sports_game",
			ID: fmt.Sprintf("g%d", i%4), Facts: map[string]triple.Value{"home_score": triple.Int(int64(i))}}); err != nil {
			t.Error(err)
		}
	})
	loop(func(i int) {
		id := ids[i%len(ids)]
		if e := p.Live.Current().GetShared(id); e != nil {
			// A refresh may remove the entity between the read and the
			// decision; that error is expected, any other is not.
			_ = p.Curation.Decide(p.Live, live.Decision{Kind: live.DecisionEdit, Entity: id,
				Fact: e.Triples[0], NewValue: triple.String(fmt.Sprintf("fix %d", i))})
		}
	})
	var cuts []frozenCut
	var cutsMu sync.Mutex
	loop(func(i int) {
		sn, rs := p.Live.Current(), p.GraphReplica.Snapshot()
		got := []frozenCut{captureCut(t, sn.GetShared, ids), captureCut(t, rs.GetShared, ids)}
		cutsMu.Lock()
		if len(cuts) < 64 {
			cuts = append(cuts, got...)
		}
		cutsMu.Unlock()
	})
	for _, b := range batches[1:] {
		if _, err := p.ConsumeDeltas(b); err != nil {
			t.Fatal(err)
		}
		p.RefreshServing()
	}
	close(stop)
	wg.Wait()

	if len(cuts) == 0 {
		t.Fatal("no snapshot captured")
	}
	for _, c := range cuts {
		for i, e := range c.records {
			if got, _ := e.MarshalBinary(); !bytes.Equal(got, c.bytes[i]) {
				t.Fatalf("%s: a snapshot's record changed after it was taken", e.ID)
			}
		}
	}
}
