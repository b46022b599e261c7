package live_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"saga/internal/live"
	"saga/internal/live/livetest"
	"saga/internal/triple"
)

// teamResolver resolves "team<i>" mentions to the i-th stable entity.
type teamResolver struct{}

func (teamResolver) Resolve(mention, _ string) (triple.EntityID, float64, bool) {
	if n, ok := strings.CutPrefix(strings.ToLower(mention), "team"); ok {
		return triple.EntityID("kg:S" + n), 0.9, true
	}
	return "", 0, false
}

var words = []string{"amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "harbor", "island", "juniper"}

func stableID(i int) triple.EntityID { return triple.EntityID(fmt.Sprintf("kg:S%d", i)) }

// randomRecord builds a stable record whose every indexed dimension (type,
// name tokens, description, references, composite references) is drawn
// from small pools, so successive versions collide on postings.
func randomRecord(r *rand.Rand, id triple.EntityID, n int) *triple.Entity {
	e := triple.NewEntity(id)
	e.AddFact(triple.PredType, triple.String([]string{"city", "human", "sports_team"}[r.Intn(3)]))
	e.AddFact(triple.PredName, triple.String(words[r.Intn(len(words))]+" "+words[r.Intn(len(words))]))
	if r.Intn(2) == 0 {
		e.AddFact("description", triple.String(words[r.Intn(len(words))]))
	}
	if r.Intn(2) == 0 {
		e.AddFact("located_in", triple.Ref(stableID(r.Intn(n))))
	}
	if r.Intn(3) == 0 {
		e.AddRelFact("educated_at", "r1", "school", triple.Ref(stableID(r.Intn(n))))
	}
	e.AddFact("population", triple.Int(int64(r.Intn(4))))
	return e
}

func randomEvent(r *rand.Rand, n int) live.Event {
	ev := live.Event{Source: "feed", Type: "sports_game", ID: fmt.Sprintf("g%d", r.Intn(6))}
	if r.Intn(5) == 0 {
		ev.Deleted = true
		return ev
	}
	ev.Facts = map[string]triple.Value{"home_score": triple.Int(int64(r.Intn(3)))}
	ev.Mentions = map[string]live.Mention{
		"home_team": {Text: fmt.Sprintf("team%d", r.Intn(n))},
		"away_team": {Text: words[r.Intn(len(words))]},
	}
	return ev
}

// hotFix applies a random curation decision to a stable entity the store
// holds, as a curator's hot fix between refreshes would.
func hotFix(t *testing.T, r *rand.Rand, q *live.Queue, store *live.Store, id triple.EntityID) {
	e := store.Current().GetShared(id)
	if e == nil {
		return
	}
	d := live.Decision{Kind: live.DecisionKind(r.Intn(3)), Entity: id, Fact: e.Triples[r.Intn(len(e.Triples))]}
	d.NewValue = triple.String(words[r.Intn(len(words))])
	if err := q.Decide(store, d); err != nil {
		t.Fatal(err)
	}
}

// TestLoadStableViewMatchesFullLoad: over random stable-view histories —
// records replaced by new pointers, entities deleted and re-added, boosts
// shifted, curation hot fixes and streaming events in between — the store
// loaded incrementally must answer every snapshot read exactly as a fresh
// store given one full load of the same view plus the same streaming events.
// It holds the view's records themselves, its version never goes back, and
// reloading a view it already holds is no write.
func TestLoadStableViewMatchesFullLoad(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkLoadMatchesFullLoad(t, seed) })
	}
}

func checkLoadMatchesFullLoad(t *testing.T, seed int64) {
	const n = 16
	r := rand.New(rand.NewSource(seed))
	store := live.NewStore()
	c := &live.Constructor{Store: store, Resolver: teamResolver{}}
	q := live.NewQueue()
	view := make(map[triple.EntityID]*triple.Entity)
	boosts := make(map[triple.EntityID]float64)
	var (
		events  []live.Event
		probes  []*triple.Entity
		version uint64
	)
	probe := func(e *triple.Entity) {
		if e != nil {
			probes = append(probes, e)
		}
	}
	monotonic := func(what string) {
		v := store.Version()
		if v < version {
			t.Fatalf("%s moved the version back: %d after %d", what, v, version)
		}
		version = v
	}
	for step := 0; step < 30; step++ {
		for i := 0; i < n; i++ {
			id := stableID(i)
			switch x := r.Intn(10); {
			case x == 0:
				delete(view, id)
			case x < 3, view[id] == nil && x < 6:
				view[id] = randomRecord(r, id, n)
				probe(view[id])
			}
		}
		switch r.Intn(4) {
		case 0:
			boosts = nil
		case 1: // unchanged
		default:
			shift, next := r.Float64(), make(map[triple.EntityID]float64, len(view))
			for id := range view {
				if r.Intn(8) != 0 {
					next[id] = float64(r.Intn(3))/4 + shift
				}
			}
			boosts = next
		}
		for k := r.Intn(4); k > 0; k-- {
			if r.Intn(2) == 0 {
				id := stableID(r.Intn(n))
				hotFix(t, r, q, store, id)
				monotonic("a hot fix")
				probe(store.Current().GetShared(id))
				continue
			}
			ev := randomEvent(r, n)
			if _, err := c.Consume(ev); err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
			monotonic("a streaming event")
			probe(store.Current().GetShared(live.LiveID(ev.Source, ev.ID)))
		}

		ents := make([]*triple.Entity, 0, len(view))
		for _, e := range view {
			ents = append(ents, e)
		}
		r.Shuffle(len(ents), func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
		c.LoadStableView(ents, boosts)
		monotonic("a load")
		if r.Intn(3) == 0 {
			v := store.Version()
			c.LoadStableView(ents, boosts)
			if store.Version() != v {
				t.Fatalf("step %d: reloading the held view bumped the version %d -> %d", step, v, store.Version())
			}
		}

		want := live.NewStore()
		for _, e := range ents {
			want.Put(e, boosts[e.ID])
		}
		ref := &live.Constructor{Store: want, Resolver: teamResolver{}}
		for _, ev := range events {
			if _, err := ref.Consume(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := livetest.Diff(store.Current(), want.Current(), probes); err != nil {
			t.Fatalf("step %d: incremental load differs from a full load: %v", step, err)
		}
		for id, e := range view {
			if store.Current().GetShared(id) != e {
				t.Fatalf("step %d: %s: the store holds a copy, not the view's record", step, id)
			}
		}
	}
}

// TestDecideRacesStableLoad: a curation hot fix racing a stable load of a
// new record for the same entity ends in one of the two serial outcomes:
// the new record (the edit landed first and the load replaced it), or the
// new record with the edit. Editing a copy of the record the load replaced
// and storing it after the load would serve that stale record until the
// next refresh. Run with -race.
func TestDecideRacesStableLoad(t *testing.T) {
	const id = triple.EntityID("kg:S0")
	record := func(pop int) *triple.Entity {
		e := triple.NewEntity(id)
		e.AddFact(triple.PredType, triple.String("city"))
		e.AddFact(triple.PredName, triple.String("Old Name"))
		e.AddFact("population", triple.Int(int64(pop)))
		return e
	}
	name := record(0).Triples[1]
	store := live.NewStore()
	c := &live.Constructor{Store: store}
	q := live.NewQueue()
	for round := 0; round < 2000; round++ {
		c.LoadStableView([]*triple.Entity{record(2 * round)}, nil)
		next := record(2*round + 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := q.Decide(store, live.Decision{Kind: live.DecisionEdit, Entity: id, Fact: name,
				NewValue: triple.String("Fixed")}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			c.LoadStableView([]*triple.Entity{next}, nil)
		}()
		wg.Wait()
		got := store.Current().GetShared(id)
		if pop := got.First("population").Int64(); pop != int64(2*round+1) {
			t.Fatalf("round %d: the store serves population %d, not the loaded record's %d: the edit overwrote the load", round, pop, 2*round+1)
		}
		if n := got.Name(); n != "Old Name" && n != "Fixed" {
			t.Fatalf("round %d: name = %q", round, n)
		}
	}
}

// BenchmarkLoadStableView: one serving refresh's load of a ~570-entity
// stable view in which 8 records are replaced and every boost shifts, each
// followed by a snapshot as RefreshServing publishes one, so every load
// also pays the copy-on-write of what the snapshot shares.
func BenchmarkLoadStableView(b *testing.B) {
	const n, replaced = 570, 8
	r := rand.New(rand.NewSource(1))
	ents := make([]*triple.Entity, n)
	alts := make([]*triple.Entity, n)
	for i := range ents {
		ents[i] = randomRecord(r, stableID(i), n)
		alts[i] = randomRecord(r, stableID(i), n)
	}
	var boosts [2]map[triple.EntityID]float64
	for k := range boosts {
		boosts[k] = make(map[triple.EntityID]float64, n)
		for i, e := range ents {
			boosts[k][e.ID] = float64(i%7)/7 + float64(k)/1000
		}
	}
	store := live.NewStore()
	c := &live.Constructor{Store: store}
	c.LoadStableView(ents, boosts[1])
	store.Current()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		for j := 0; j < replaced; j++ {
			at := (i*replaced + j) % n
			ents[at], alts[at] = alts[at], ents[at]
		}
		c.LoadStableView(ents, boosts[i%2])
		store.Current()
		i++
	}
}

// putSnapshotStore loads n random stable records into a store and
// publishes a snapshot of it. It returns the records, which a streaming Put
// then sends again.
func putSnapshotStore(n int) (*live.Store, []*triple.Entity) {
	r := rand.New(rand.NewSource(1))
	ents := make([]*triple.Entity, n)
	for i := range ents {
		ents[i] = randomRecord(r, stableID(i), n)
	}
	store := live.NewStore()
	(&live.Constructor{Store: store}).LoadStableView(ents, nil)
	store.Current()
	return store, ents
}

// TestPutAfterSnapshotAllocs: the write after a snapshot copies only what
// it touches, so one streaming Put followed by Current allocates about the
// same at 57 000 entities as at 570.
func TestPutAfterSnapshotAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		store, ents := putSnapshotStore(n)
		i := 0
		return testing.AllocsPerRun(100, func() {
			store.Put(ents[i%n], 0)
			store.Current()
			i++
		})
	}
	if small, large := allocs(570), allocs(57_000); large > 2*small {
		t.Fatalf("Put then Current: %.0f allocs at 570 entities, %.0f at 57 000; want at most 2x", small, large)
	}
}

// BenchmarkPutSnapshot: one streaming Put, then Current, which republishes
// a snapshot, at three store sizes. B/op should grow with the depth of the
// store's trees, not with their size.
func BenchmarkPutSnapshot(b *testing.B) {
	for _, n := range []int{570, 5_700, 57_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			store, ents := putSnapshotStore(n)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				store.Put(ents[i%n], 0)
				store.Current()
				i++
			}
		})
	}
}
