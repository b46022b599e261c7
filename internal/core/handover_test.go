package core

// The publisher hands each op's records to the agents as they are; decoding
// them from the log is for recovery. These tests hold the two paths to one
// another and the shared records to their freeze.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"saga/internal/graphengine"
	"saga/internal/live"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

// checkDecodePath replays p's log from genesis into fresh agents of a fresh
// engine over the same log, so every op goes through the decode path, and
// compares them with p's hot-applied agents: byte-identical replica and
// entity-store records, deep-equal replica entities, and equal link tables.
func checkDecodePath(t *testing.T, p *Platform, step string) {
	t.Helper()
	e := graphengine.New(p.Engine.Log)
	replica := triple.NewGraph()
	store := entitystore.New()
	links := &Platform{linkReplica: make(map[triple.EntityID]triple.EntityID)}
	e.RegisterAgent(graphengine.EntityStoreAgent{Store: store})
	e.RegisterAgent(graphengine.GraphAgent{Graph: replica})
	e.RegisterAgent(graphengine.FuncAgent{AgentName: "link-table", Fn: links.applyLinkOp})
	if err := e.CatchUp(); err != nil {
		t.Fatalf("%s: decode-path catch-up: %v", step, err)
	}
	if got, want := replica.IDs(), p.GraphReplica.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded replica holds %d entities, the hot one %d", step, len(got), len(want))
	}
	for _, id := range p.GraphReplica.IDs() {
		hot, cold := p.GraphReplica.GetShared(id), replica.GetShared(id)
		hb, err := hot.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if cb, _ := cold.MarshalBinary(); !bytes.Equal(hb, cb) {
			t.Fatalf("%s: %s: the decoded replica record's bytes differ from the handed one's", step, id)
		}
		if !reflect.DeepEqual(hot, cold) {
			t.Fatalf("%s: %s: decoded replica record %+v, handed %+v", step, id, cold, hot)
		}
	}
	if got, want := storeRecords(t, store), storeRecords(t, p.EntityStore); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the decoded entity store differs from the hot one", step)
	}
	p.linkMu.Lock()
	defer p.linkMu.Unlock()
	if got, want := links.linkReplica, p.linkReplica; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded link table %v, hot %v", step, got, want)
	}
}

// storeRecords returns every entity-store record by ID, as its bytes.
func storeRecords(t *testing.T, s *entitystore.Store) map[triple.EntityID][]byte {
	t.Helper()
	out := make(map[triple.EntityID][]byte)
	if err := s.Range(func(e *triple.Entity) bool {
		b, err := e.MarshalBinary()
		if err != nil {
			t.Error(err)
		}
		out[e.ID] = b
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHandOverMatchesDecodePath: over random feed histories — adds, updates,
// deletes, volatile overwrites, curation fixes, and publishes that fail and
// are retried at the next publish point — the agents fed by hand-over after
// every published group hold exactly what agents reach by decoding the same
// log's records.
func TestHandOverMatchesDecodePath(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
			failErr := errors.New("injected publish failure")
			batches := churnStream(8, 3, 6)
			next := 0
			for round := 0; round < 16; round++ {
				failing := round > 0 && r.Intn(4) == 0
				p.publishHook = func() error {
					if failing {
						return failErr
					}
					return nil
				}
				var err error
				switch {
				case next < len(batches) && (next == 0 || r.Intn(3) > 0):
					_, err = p.ConsumeDeltas(batches[next])
					next++
				case r.Intn(2) == 0:
					_, err = p.IngestSource(musicSource(), strings.NewReader(randomArtists(r)))
				default:
					p.RefreshServing()
					ids := p.GraphReplica.IDs()
					id := ids[r.Intn(len(ids))]
					if e := p.Live.Current().GetShared(id); e != nil {
						if err := p.Curation.Decide(p.Live, live.Decision{Kind: live.DecisionEdit, Entity: id,
							Fact: e.Triples[r.Intn(len(e.Triples))], NewValue: triple.String(fmt.Sprintf("fix %d", round))}); err != nil {
							t.Fatal(err)
						}
					}
					_, err = p.ApplyCurationDecisions()
				}
				if err != nil && !errors.Is(err, failErr) {
					t.Fatalf("round %d: %v", round, err)
				}
				checkDecodePath(t, p, fmt.Sprintf("round %d", round))
			}
			// The retry of every failed publish rides the next group.
			p.publishHook = nil
			p.RefreshServing()
			checkDecodePath(t, p, "healed")
			if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
				t.Fatal("replica diverged from the KG after the retries")
			}
		})
	}
}

// TestOneRecordStaysFrozen: after a refresh, the KG, the replica and the
// live store hold one record per entity. Each store is then written in turn
// — a feed batch overwrites KG and replica records (and a refresh the live
// store's), a streaming Put replaces a live record, a curation hot fix edits
// the live store, the KG and, through the log, the replica — while readers
// re-marshal every held record and every snapshot they took. Run under
// -race, an in-place write also races the readers.
func TestOneRecordStaysFrozen(t *testing.T) {
	p := newTestPlatform(t, Options{})
	batches := churnStream(4, 3, 6)
	for _, b := range batches[:2] {
		if _, err := p.ConsumeDeltas(b); err != nil {
			t.Fatal(err)
		}
	}
	p.RefreshServing()
	ids := p.GraphReplica.IDs()
	held := captureCut(t, p.KG.Graph.GetShared, ids)
	for _, e := range held.records {
		if p.GraphReplica.GetShared(e.ID) != e || p.Live.Current().GetShared(e.ID) != e {
			t.Fatalf("%s: the KG, the replica and the live store do not share one record", e.ID)
		}
	}

	stop := make(chan struct{})
	var (
		wg     sync.WaitGroup
		cutsMu sync.Mutex
		cuts   = []frozenCut{held}
	)
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, e := range held.records {
					if got, _ := e.MarshalBinary(); !bytes.Equal(got, held.bytes[i]) {
						t.Errorf("%s: the held record changed", e.ID)
						return
					}
				}
				kg, rs, sn := p.KG.Graph.Snapshot(), p.GraphReplica.Snapshot(), p.Live.Current()
				got := []frozenCut{captureCut(t, kg.GetShared, ids), captureCut(t, rs.GetShared, ids), captureCut(t, sn.GetShared, ids)}
				cutsMu.Lock()
				if len(cuts) < 96 {
					cuts = append(cuts, got...)
				}
				cutsMu.Unlock()
			}
		}()
	}

	// A feed batch: volatile overwrites of every entity, a delete and
	// updates, into the KG and the replica; the refresh then the live store.
	if _, err := p.ConsumeDeltas(batches[2]); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	// A streaming Put replaces a live record.
	for _, e := range held.records[:3] {
		if cur := p.Live.Current().GetShared(e.ID); cur != nil {
			c := cur.Clone()
			c.AddFact("streamed", triple.Bool(true))
			p.Live.Put(c, 0)
		}
	}
	// A curation hot fix edits the live store, then the KG and the replica.
	for _, e := range held.records[3:6] {
		if cur := p.Live.Current().GetShared(e.ID); cur != nil {
			if err := p.Curation.Decide(p.Live, live.Decision{Kind: live.DecisionEdit, Entity: e.ID,
				Fact: cur.Triples[0], NewValue: triple.String("hot fix")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := p.ApplyCurationDecisions(); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	close(stop)
	wg.Wait()

	for _, c := range cuts {
		for i, e := range c.records {
			if got, _ := e.MarshalBinary(); !bytes.Equal(got, c.bytes[i]) {
				t.Fatalf("%s: a held or snapshot record changed after it was taken", e.ID)
			}
		}
	}
	changed := 0
	for _, e := range held.records {
		if p.KG.Graph.GetShared(e.ID) != e {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no store write replaced a held record")
	}
}
