package triple

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// These tests pin the copy-on-write store to a trivially correct model: a
// plain map of cloned entities mutated by the same operation sequence. The
// graph must agree with the model byte for byte, and every snapshot must stay
// frozen at its cut while both sides keep writing.

// cowModel is the reference implementation: a map of deep copies.
type cowModel map[EntityID]*Entity

func (m cowModel) put(e *Entity)   { m[e.ID] = e.Clone() }
func (m cowModel) del(id EntityID) { delete(m, id) }
func (m cowModel) update(id EntityID, fn func(*Entity)) {
	e, ok := m[id]
	if !ok {
		e = NewEntity(id)
	} else {
		e = e.Clone()
	}
	fn(e)
	m[id] = e
}
func (m cowModel) clone() cowModel {
	out := make(cowModel, len(m))
	for id, e := range m {
		out[id] = e.Clone()
	}
	return out
}
func (m cowModel) triples() []Triple {
	var out []Triple
	for _, e := range m {
		out = append(out, e.Triples...)
	}
	SortTriples(out)
	return out
}

// checkAgainstModel asserts the graph's full read surface matches the model.
func checkAgainstModel(t *testing.T, g *Graph, m cowModel, label string) {
	t.Helper()
	if g.Len() != len(m) {
		t.Fatalf("%s: Len = %d, model %d", label, g.Len(), len(m))
	}
	if !reflect.DeepEqual(g.Triples(), m.triples()) {
		t.Fatalf("%s: triples diverged from model", label)
	}
	facts := 0
	types := make(map[string]bool)
	sources := make(map[string]bool)
	byType := make(map[string][]EntityID)
	for id, e := range m {
		facts += len(e.Triples)
		for _, typ := range e.Types() {
			types[typ] = true
			byType[typ] = append(byType[typ], id)
		}
		for _, tr := range e.Triples {
			for _, s := range tr.Sources {
				sources[s] = true
			}
		}
	}
	if g.FactCount() != facts {
		t.Fatalf("%s: FactCount = %d, model %d", label, g.FactCount(), facts)
	}
	st := g.Stats()
	if st.Entities != len(m) || st.Facts != facts || st.Types != len(types) || st.Sources != len(sources) {
		t.Fatalf("%s: Stats = %+v, model entities=%d facts=%d types=%d sources=%d",
			label, st, len(m), facts, len(types), len(sources))
	}
	for typ, want := range byType {
		sortIDs(want)
		if got := g.IDsByType(typ); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: IDsByType(%q) = %v, model %v", label, typ, got, want)
		}
	}
	for id, want := range m {
		got := g.Get(id)
		if got == nil || !reflect.DeepEqual(got.Triples, want.Triples) {
			t.Fatalf("%s: Get(%s) diverged from model", label, id)
		}
		shared := g.GetShared(id)
		if shared == nil || !reflect.DeepEqual(shared.Triples, want.Triples) {
			t.Fatalf("%s: GetShared(%s) diverged from model", label, id)
		}
	}
}

func sortIDs(ids []EntityID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// cowRandomOp applies one random mutation to graph(s) and model together.
func cowRandomOp(r *rand.Rand, graphs []*Graph, m cowModel) {
	id := EntityID(fmt.Sprintf("kg:M%02d", r.Intn(24)))
	switch r.Intn(4) {
	case 0: // put a fresh payload
		e := NewEntity(id)
		e.AddFact(PredType, String([]string{"human", "song", "album"}[r.Intn(3)]))
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			e.Add(New(id, "genre", String(randWord(r))).WithSource([]string{"s1", "s2", "s3"}[r.Intn(3)], 0.9))
		}
		// Dedup like real payloads: equal-key triples with distinct provenance
		// would otherwise permute under the (key-only) unstable triple sort.
		e.Dedup()
		for _, g := range graphs {
			g.Put(e)
		}
		m.put(e)
	case 1: // delete
		for _, g := range graphs {
			g.Delete(id)
		}
		m.del(id)
	default: // update in place (clone-and-swap inside the graph)
		word := randWord(r)
		src := []string{"s1", "s2", "s3"}[r.Intn(3)]
		fn := func(e *Entity) {
			if len(e.Types()) == 0 {
				e.AddFact(PredType, String("human"))
			}
			e.Add(New(e.ID, PredAlias, String(word)).WithSource(src, 0.8))
			e.Dedup()
		}
		for _, g := range graphs {
			g.Update(id, fn)
		}
		m.update(id, fn)
	}
}

// TestCOWGraphMatchesModel drives one random operation sequence through the
// graph and the map model; both must agree on every read surface at every
// checkpoint.
func TestCOWGraphMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := NewGraph()
	m := make(cowModel)
	for step := 0; step < 400; step++ {
		cowRandomOp(r, []*Graph{g}, m)
		if step%97 == 0 || step == 399 {
			checkAgainstModel(t, g, m, fmt.Sprintf("step %d", step))
		}
	}
}

// TestCOWSnapshotDeleteFirst makes Delete the first write after a Snapshot,
// on the live side and then on the snapshot side: the delete must copy the
// shared maps before removing anything, so the other side keeps the entity,
// its type posting and its source counts.
func TestCOWSnapshotDeleteFirst(t *testing.T) {
	g := NewGraph()
	m := make(cowModel)
	for i, typ := range []string{"human", "song", "human"} {
		e := NewEntity(EntityID(fmt.Sprintf("kg:D%d", i)))
		e.Add(New(e.ID, PredType, String(typ)).WithSource(fmt.Sprintf("s%d", i), 0.9))
		g.Put(e)
		m.put(e)
	}
	snap := g.Snapshot()
	cut := m.clone()
	if !g.Delete("kg:D1") {
		t.Fatal("Delete(kg:D1) = false")
	}
	m.del("kg:D1")
	checkAgainstModel(t, g, m, "live after delete")
	checkAgainstModel(t, snap, cut, "snapshot after live delete")
	if snap.GetShared("kg:D1") == nil || len(snap.IDsByType("song")) != 1 {
		t.Fatal("snapshot lost the entity the live graph deleted")
	}

	// The snapshot side: its first write is a Delete too.
	again := snap.Snapshot()
	if !snap.Delete("kg:D0") {
		t.Fatal("snapshot Delete(kg:D0) = false")
	}
	snapModel := cut.clone()
	snapModel.del("kg:D0")
	checkAgainstModel(t, snap, snapModel, "snapshot after its own delete")
	checkAgainstModel(t, again, cut, "second snapshot after first snapshot's delete")
	checkAgainstModel(t, g, m, "live after snapshot delete")
}

// TestCOWSnapshotFrozenUnderWrites interleaves snapshots with further writes
// on both the live graph and earlier snapshots: every snapshot must stay
// byte-identical to the model state at its cut, no matter which side writes
// afterwards — the copy-on-write isolation property.
func TestCOWSnapshotFrozenUnderWrites(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	live := NewGraph()
	m := make(cowModel)
	type cut struct {
		g     *Graph
		model cowModel
	}
	var cuts []cut
	for step := 0; step < 300; step++ {
		cowRandomOp(r, []*Graph{live}, m)
		if step%40 == 17 {
			cuts = append(cuts, cut{g: live.Snapshot(), model: m.clone()})
		}
		if len(cuts) > 0 && step%23 == 5 {
			// Snapshots are writable graphs too: mutate one and its model so
			// COW copies on the snapshot side get exercised.
			c := &cuts[r.Intn(len(cuts))]
			cowRandomOp(r, []*Graph{c.g}, c.model)
		}
	}
	for i, c := range cuts {
		checkAgainstModel(t, c.g, c.model, fmt.Sprintf("snapshot %d", i))
	}
	checkAgainstModel(t, live, m, "live graph after snapshots")
}

// TestCOWSnapshotConsistentCutUnderConcurrency hammers the graph with
// concurrent per-entity writers that keep an invariant (every entity of the
// group carries the same round counter) and takes snapshots mid-flight: each
// snapshot must observe a consistent cut per entity (records are immutable,
// so a torn entity is impossible) and stay frozen afterwards. Run with -race.
func TestCOWSnapshotConsistentCutUnderConcurrency(t *testing.T) {
	g := NewGraph()
	const writers, rounds = 4, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := EntityID(fmt.Sprintf("kg:W%d", w))
			for round := 0; round < rounds; round++ {
				g.Update(id, func(e *Entity) {
					e.Triples = nil
					e.AddFact(PredType, String("human"))
					e.AddFact("round", Int(int64(round)))
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		snap := g.Snapshot()
		before := snap.Triples()
		// The live graph keeps writing; the snapshot must not move.
		if after := snap.Triples(); !reflect.DeepEqual(before, after) {
			t.Fatal("snapshot content changed while live graph advanced")
		}
		snap.RangeShared(func(e *Entity) bool {
			if len(e.Get("round")) > 1 {
				t.Errorf("entity %s torn: %v", e.ID, e.Get("round"))
			}
			return true
		})
		select {
		case <-done:
			if g.Len() != writers {
				t.Fatalf("Len = %d, want %d", g.Len(), writers)
			}
			return
		default:
		}
	}
}

// TestIDsByTypeCacheInvalidation exercises the per-type sorted-slice cache
// through hit, write-invalidate, and cross-type isolation, and checks the
// returned slice is a private copy.
func TestIDsByTypeCacheInvalidation(t *testing.T) {
	g := NewGraph()
	add := func(id string, typ string) {
		e := NewEntity(EntityID(id))
		e.AddFact(PredType, String(typ))
		g.Put(e)
	}
	add("kg:A1", "human")
	add("kg:A2", "human")
	first := g.IDsByType("human")
	if len(first) != 2 {
		t.Fatalf("humans = %v", first)
	}
	// Mutating the returned slice must not corrupt the cache.
	first[0] = "kg:ZZZ"
	if got := g.IDsByType("human"); got[0] != "kg:A1" {
		t.Fatalf("cache corrupted by caller mutation: %v", got)
	}
	add("kg:A3", "human")
	if got := g.IDsByType("human"); len(got) != 3 || got[2] != "kg:A3" {
		t.Fatalf("stale cache after write: %v", got)
	}
	g.Delete("kg:A1")
	if got := g.IDsByType("human"); len(got) != 2 || got[0] != "kg:A2" {
		t.Fatalf("stale cache after delete: %v", got)
	}
	// Retype moves the entity across cached types.
	g.Update("kg:A2", func(e *Entity) {
		e.Triples = nil
		e.AddFact(PredType, String("song"))
	})
	if got := g.IDsByType("human"); len(got) != 1 {
		t.Fatalf("humans after retype = %v", got)
	}
	if got := g.IDsByType("song"); len(got) != 1 || got[0] != "kg:A2" {
		t.Fatalf("songs after retype = %v", got)
	}
	// A snapshot starts with its own cache and must not see later writes.
	snap := g.Snapshot()
	add("kg:A9", "song")
	if got := snap.IDsByType("song"); len(got) != 1 {
		t.Fatalf("snapshot IDsByType saw later write: %v", got)
	}
}

// TestSharedReadsAreCloneFreeAndImmutable checks GetShared returns the stored
// record (no per-read clone) and that graph writes replace rather than mutate
// it, so retained shared reads stay frozen.
func TestSharedReadsAreCloneFreeAndImmutable(t *testing.T) {
	g := NewGraph()
	e := NewEntity("kg:E1")
	e.AddFact(PredType, String("human"))
	e.AddFact(PredName, String("Ada"))
	g.Put(e)
	s1 := g.GetShared("kg:E1")
	if s2 := g.GetShared("kg:E1"); s1 != s2 {
		t.Fatal("GetShared cloned: two reads returned distinct pointers")
	}
	g.Update("kg:E1", func(e *Entity) { e.AddFact(PredAlias, String("Countess")) })
	if got := g.GetShared("kg:E1"); got == s1 {
		t.Fatal("Update mutated the stored record in place")
	}
	if s1.Name() != "Ada" || len(s1.Triples) != 2 {
		t.Fatal("retained shared record changed under a write")
	}
	var viaRange *Entity
	g.RangeShared(func(e *Entity) bool { viaRange = e; return true })
	if viaRange != g.GetShared("kg:E1") {
		t.Fatal("RangeShared returned a clone, want the stored record")
	}
}
