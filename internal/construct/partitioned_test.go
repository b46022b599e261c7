package construct

// Byte-identity coverage across partition counts: for every partition count,
// worker count, and linking mode, a Pipeline must leave (after the trailing
// exchange) exactly the KG, link table, and per-delta stats of the
// one-partition pipeline over the same stream — including the
// flush-on-conflict interleavings where stable writes land on targets with
// deferred volatile ops, and the deferral counters that make the exchange
// window observable.

import (
	"fmt"
	"reflect"
	"testing"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

// partitionedWorkload builds a mixed stream over `sources` sources sharing 3
// entity types (so fusion crosses sources) plus the per-source city type the
// birth_place refs resolve against: round 0 adds, round 1 whole-source
// updates over a shifted window, round 2 deletes plus volatile churn in one
// delta, later rounds volatile churn with a stable update interleaved every
// third round (the flush-on-conflict path).
func partitionedWorkload(rounds, sources, count int) [][]ingest.Delta {
	batches := make([][]ingest.Delta, rounds)
	for r := range batches {
		deltas := make([]ingest.Delta, 0, sources)
		for s := 0; s < sources; s++ {
			src := fmt.Sprintf("src%02d", s)
			offset := 0
			if r >= 1 {
				offset = 4
			}
			spec := workload.SourceSpec{
				Name: src, Type: fmt.Sprintf("kind%02d", s%3),
				Offset: offset, Count: count,
				DupRate: 0.1, TypoRate: 0.1, RichFacts: 2,
				Seed: int64(r*100 + s + 1),
			}
			switch {
			case r == 0:
				deltas = append(deltas, spec.Delta())
			case r == 1:
				deltas = append(deltas, ingest.Delta{Source: src, Updated: spec.Entities()})
			default:
				d := ingest.Delta{Source: src}
				if r == 2 {
					d.Deleted = []triple.EntityID{
						triple.EntityID(fmt.Sprintf("%s:e%d", src, s+4)),
						triple.EntityID(fmt.Sprintf("%s:missing", src)),
					}
				}
				for u := 0; u < count+4; u++ {
					vol := triple.NewEntity(triple.EntityID(fmt.Sprintf("%s:e%d", src, u)))
					vol.Add(triple.New("", "popularity",
						triple.Float(float64(r)+float64(u)/1000)).WithSource(src, 0.9))
					d.Volatile = append(d.Volatile, vol)
				}
				if r%3 == 0 {
					// Stable update over targets that carry deferred volatile
					// ops: the partitioned commit must flush them first.
					d.Updated = spec.Entities()
				}
				deltas = append(deltas, d)
			}
		}
		batches[r] = deltas
	}
	return batches
}

// workloadSourceIDs collects every payload entity ID the stream mentions, for
// link-table comparison.
func workloadSourceIDs(batches [][]ingest.Delta) []triple.EntityID {
	seen := make(map[triple.EntityID]bool)
	var out []triple.EntityID
	note := func(id triple.EntityID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, b := range batches {
		for _, d := range b {
			for _, e := range d.Added {
				note(e.ID)
			}
			for _, e := range d.Updated {
				note(e.ID)
			}
			for _, e := range d.Volatile {
				note(e.ID)
			}
			for _, id := range d.Deleted {
				note(id)
			}
		}
	}
	return out
}

// newTestPipeline wires a pipeline of the given partition count over a fresh
// KG.
func newTestPipeline(partitions, workers int, indexed bool) *Pipeline {
	p := NewPipeline(NewKG(), ontology.Default(), partitions)
	p.Workers = workers
	if indexed {
		p.EnableBlockIndex()
	}
	return p
}

// assertSameKG compares final graph bytes and the full link table.
func assertSameKG(t *testing.T, got, want *KG, ids []triple.EntityID) {
	t.Helper()
	if g, w := graphBytes(t, got), graphBytes(t, want); g != w {
		t.Fatalf("KG bytes diverged (%d vs %d bytes)", len(g), len(w))
	}
	if got.LinkCount() != want.LinkCount() {
		t.Fatalf("link count %d vs %d", got.LinkCount(), want.LinkCount())
	}
	for _, id := range ids {
		gID, gOK := got.Lookup(id)
		wID, wOK := want.Lookup(id)
		if gOK != wOK || gID != wID {
			t.Fatalf("link %s: got (%s,%v) want (%s,%v)", id, gID, gOK, wID, wOK)
		}
	}
}

// TestPartitionedMatchesSinglePipeline is the tentpole property: construction
// at every partition count is byte-identical to one partition across worker
// counts × linking modes, per-delta stats included.
func TestPartitionedMatchesSinglePipeline(t *testing.T) {
	batches := partitionedWorkload(7, 4, 10)
	ids := workloadSourceIDs(batches)
	for _, indexed := range []bool{true, false} {
		mode := "indexed"
		if !indexed {
			mode = "fullscan"
		}
		for _, workers := range []int{1, 4} {
			// Reference: one partition at the same worker count.
			single := newTestPipeline(1, workers, indexed)
			wantKG := single.KG
			wantStats := make([][]SourceStats, len(batches))
			for i, b := range batches {
				stats, err := single.Consume(b)
				if err != nil {
					t.Fatal(err)
				}
				wantStats[i] = stats
			}
			for _, parts := range []int{1, 2, 3, 4} {
				t.Run(fmt.Sprintf("%s/workers=%d/parts=%d", mode, workers, parts), func(t *testing.T) {
					pp := newTestPipeline(parts, workers, indexed)
					for i, b := range batches {
						stats, err := pp.Consume(b)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(stats, wantStats[i]) {
							t.Fatalf("batch %d stats diverged:\npart   %+v\nsingle %+v", i, stats, wantStats[i])
						}
					}
					// The trailing exchange applies the deferred churn.
					pp.FlushVolatile()
					assertSameKG(t, pp.KG, wantKG, ids)
					if pp.PendingVolatile() != 0 {
						t.Fatalf("pending volatile after flush: %d", pp.PendingVolatile())
					}
					st := pp.VolatileStats()
					if st.Enqueued != st.Collapsed+st.Applied || st.Pending != 0 {
						t.Fatalf("volatile accounting out of balance: %+v", st)
					}
					if parts > 1 && st.Enqueued == 0 {
						t.Fatal("stream exercised no deferred volatile traffic")
					}
				})
			}
		}
	}
}

// TestPartitionedFlushOnConflict pins the non-commutativity interleavings
// one by one: a deferred overwrite followed by a stable update, a stable
// delete, and a delete-then-readd must each replay the one-partition pipeline's
// order exactly.
func TestPartitionedFlushOnConflict(t *testing.T) {
	vol := func(src, local string, pop float64) *triple.Entity {
		e := triple.NewEntity(triple.EntityID(src + ":" + local))
		e.Add(triple.New("", "popularity", triple.Float(pop)).WithSource(src, 0.9))
		return e
	}
	steps := map[string][]ingest.Delta{
		"volatile-then-update": {
			{Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Nova Harper")}},
			{Source: "s", Volatile: []*triple.Entity{vol("s", "a", 0.3)}},
			{Source: "s", Volatile: []*triple.Entity{vol("s", "a", 0.5)}},
			{Source: "s", Updated: []*triple.Entity{sourceArtist("s", "a", "Nova Harper Jr")}},
			{Source: "s", Volatile: []*triple.Entity{vol("s", "a", 0.9)}},
		},
		"volatile-then-delete": {
			{Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Lone Star")}},
			{Source: "s2", Added: []*triple.Entity{sourceArtist("s2", "b", "Lone Star")}},
			{Source: "s2", Volatile: []*triple.Entity{vol("s2", "b", 0.4)}},
			{Source: "s", Deleted: []triple.EntityID{"s:a"}},
			{Source: "s2", Deleted: []triple.EntityID{"s2:b"}},
		},
		"delete-then-readd": {
			{Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Phoenix")}},
			{Source: "s", Volatile: []*triple.Entity{vol("s", "a", 0.2)}},
			{Source: "s", Deleted: []triple.EntityID{"s:a"}},
			{Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Phoenix")}},
			{Source: "s", Volatile: []*triple.Entity{vol("s", "a", 0.8)}},
		},
		"two-sources-collapse": {
			{Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Echo")}},
			{Source: "s", Volatile: []*triple.Entity{vol("s", "a", 0.1), vol("s", "a", 0.2)}},
			{Source: "s2", Volatile: []*triple.Entity{vol("s", "a", 0.3)}},
			{Source: "s", Volatile: []*triple.Entity{vol("s", "a", 0.4)}},
		},
	}
	for name, deltas := range steps {
		t.Run(name, func(t *testing.T) {
			single := newTestPipeline(1, 2, true)
			wantKG := single.KG
			for _, d := range deltas {
				if _, err := single.ConsumeDelta(d); err != nil {
					t.Fatal(err)
				}
			}
			for _, parts := range []int{1, 3} {
				pp := newTestPipeline(parts, 2, true)
				for _, d := range deltas {
					if _, err := pp.ConsumeDelta(d); err != nil {
						t.Fatal(err)
					}
				}
				pp.FlushVolatile()
				assertSameKG(t, pp.KG, wantKG, workloadSourceIDs([][]ingest.Delta{deltas}))
			}
		})
	}
}

// TestPartitionedVolatileCounters: the deferral bookkeeping — enqueue,
// consecutive same-source collapse, pending, flush — must add up, and
// HasPending must expose exactly the held-back targets the publisher skips.
func TestPartitionedVolatileCounters(t *testing.T) {
	pp := newTestPipeline(2, 2, true)
	if _, err := pp.ConsumeDelta(ingest.Delta{
		Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Vega")},
	}); err != nil {
		t.Fatal(err)
	}
	kgID, _ := pp.KG.Lookup("s:a")
	churn := func(src string, pop float64) ingest.Delta {
		e := triple.NewEntity("s:a")
		e.Add(triple.New("", "popularity", triple.Float(pop)).WithSource(src, 0.9))
		return ingest.Delta{Source: src, Volatile: []*triple.Entity{e}}
	}
	for i := 0; i < 4; i++ { // same source: 3 of 4 collapse
		if _, err := pp.ConsumeDelta(churn("s", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pp.ConsumeDelta(churn("s2", 9)); err != nil { // breaks the run
		t.Fatal(err)
	}
	if !pp.HasPending(kgID) {
		t.Fatal("target with deferred ops not pending")
	}
	if pp.PendingVolatile() != 1 {
		t.Fatalf("pending targets = %d, want 1", pp.PendingVolatile())
	}
	st := pp.VolatileStats()
	if st.Enqueued != 5 || st.Collapsed != 3 || st.Applied != 0 || st.Pending != 2 {
		t.Fatalf("pre-flush stats = %+v", st)
	}
	if got := pp.FlushVolatile(); got != 2 {
		t.Fatalf("flush applied %d ops, want 2", got)
	}
	if pp.HasPending(kgID) || pp.PendingVolatile() != 0 {
		t.Fatal("pending state survived the flush")
	}
	st = pp.VolatileStats()
	if st.Applied != 2 || st.Pending != 0 || st.Flushes != 1 {
		t.Fatalf("post-flush stats = %+v", st)
	}
	// The survivor of each (target, source) run is the last op: s's 3, s2's 9.
	e := pp.KG.Graph.Get(kgID)
	pops := e.Get("popularity")
	if len(pops) != 2 {
		t.Fatalf("popularity facts = %d, want 2 (one per source)", len(pops))
	}
	got := map[float64]bool{}
	for _, v := range pops {
		got[v.Float64()] = true
	}
	if !got[3] || !got[9] {
		t.Fatalf("collapse survivors = %v, want {3, 9}", got)
	}
	if pp.FlushVolatile() != 0 {
		t.Fatal("second flush found work")
	}
	if st := pp.VolatileStats(); st.Flushes != 1 {
		t.Fatalf("empty flush counted: %+v", st)
	}
}

// TestPartitionedFeedMatchesConsume: the partitioned feed must construct
// exactly the KG of serial Consume calls at the same partition count — and
// therefore of one partition — with per-batch stats preserved through
// the feed's result channels.
func TestPartitionedFeedMatchesConsume(t *testing.T) {
	batches := partitionedWorkload(6, 3, 9)
	ids := workloadSourceIDs(batches)

	serial := newTestPipeline(3, 2, true)
	serialStats := make([][]SourceStats, len(batches))
	for i, b := range batches {
		stats, err := serial.Consume(b)
		if err != nil {
			t.Fatal(err)
		}
		serialStats[i] = stats
	}
	serial.FlushVolatile()

	single := newTestPipeline(1, 2, true)
	wantKG := single.KG
	for _, b := range batches {
		if _, err := single.Consume(b); err != nil {
			t.Fatal(err)
		}
	}
	assertSameKG(t, serial.KG, wantKG, ids)

	pp := newTestPipeline(3, 2, true)
	f := NewFeed(pp, FeedOptions{Queue: 2, PublishQueue: 1})
	results := make([]<-chan BatchResult, len(batches))
	for i, b := range batches {
		results[i] = f.Submit(b)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range results {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
		if !reflect.DeepEqual(res.Stats, serialStats[i]) {
			t.Fatalf("batch %d stats diverged:\nfeed   %+v\nserial %+v", i, res.Stats, serialStats[i])
		}
	}
	pp.FlushVolatile()
	assertSameKG(t, pp.KG, wantKG, ids)
}

// TestPartitionedBadDeltaLeavesKGUntouched: validation failures abort the
// whole batch before any commit, at every partition count.
func TestPartitionedBadDeltaLeavesKGUntouched(t *testing.T) {
	pp := newTestPipeline(2, 2, true)
	if _, err := pp.ConsumeDelta(ingest.Delta{
		Source: "seed", Added: []*triple.Entity{sourceArtist("seed", "a", "Seed Artist")},
	}); err != nil {
		t.Fatal(err)
	}
	before := graphBytes(t, pp.KG)
	links := pp.KG.LinkCount()
	batch := []ingest.Delta{
		{Source: "s1", Added: []*triple.Entity{sourceArtist("s1", "x", "Alpha")}},
		{Source: "s2", Added: []*triple.Entity{sourceArtist("s2", "y", "Beta"), nil}},
	}
	if _, err := pp.Consume(batch); err == nil {
		t.Fatal("batch with bad delta should error")
	}
	if got := graphBytes(t, pp.KG); got != before {
		t.Fatal("KG changed although a delta of the batch was invalid")
	}
	if pp.KG.LinkCount() != links {
		t.Fatal("link table changed on invalid batch")
	}
	if _, err := pp.Consume(batch[:1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := pp.KG.Lookup("s1:x"); !ok {
		t.Fatal("valid delta did not consume after the aborted batch")
	}
}
