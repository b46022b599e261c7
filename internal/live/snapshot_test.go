package live

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"saga/internal/triple"
)

// TestSnapshotImmutable pins the serving contract: a snapshot is frozen at
// its version while the store keeps moving underneath it.
func TestSnapshotImmutable(t *testing.T) {
	s := NewStore()
	s.Put(cityEntity("kg:C1", "Chicago", "kg:US", 2700000), 0.5)
	s.Put(cityEntity("kg:C2", "Boston", "kg:US", 650000), 0.2)

	sn := s.Snapshot()
	if sn.Version() != s.Version() {
		t.Fatalf("snapshot version %d != store version %d", sn.Version(), s.Version())
	}
	wantLen := sn.Len()
	wantCities := len(sn.ByType("city"))
	wantName := sn.GetShared("kg:C1").Name()

	// Mutate the store in every indexed dimension.
	s.Put(cityEntity("kg:C3", "Denver", "kg:US", 700000), 0.9)
	renamed := cityEntity("kg:C1", "Second City", "kg:US", 2700000)
	s.Put(renamed, 0.5)
	s.Delete("kg:C2")

	if sn.Len() != wantLen {
		t.Fatalf("snapshot Len moved: %d -> %d", wantLen, sn.Len())
	}
	if got := len(sn.ByType("city")); got != wantCities {
		t.Fatalf("snapshot ByType moved: %d -> %d", wantCities, got)
	}
	if got := sn.GetShared("kg:C1").Name(); got != wantName {
		t.Fatalf("snapshot entity moved: %q -> %q", wantName, got)
	}
	if sn.GetShared("kg:C2") == nil {
		t.Fatal("deleted entity vanished from the snapshot")
	}
	if len(sn.ByAttr(triple.PredName, "Denver")) != 0 {
		t.Fatal("entity written after the cut is visible in the snapshot")
	}
	if len(sn.SearchText("Chicago", 3)) == 0 {
		t.Fatal("snapshot text search lost the frozen doc")
	}
	// The rename: the snapshot still finds the old name and not the new one,
	// in the attribute index and in text search alike.
	if ids := sn.ByAttr(triple.PredName, "Chicago"); len(ids) != 1 || ids[0] != "kg:C1" {
		t.Fatalf("snapshot lost the old name: %v", ids)
	}
	if len(sn.ByAttr(triple.PredName, "Second City")) != 0 || len(sn.SearchText("Second", 3)) != 0 {
		t.Fatal("snapshot finds the name written after the cut")
	}
	if hits := s.Current().SearchText("Second", 3); len(hits) != 1 || hits[0].ID != "kg:C1" {
		t.Fatalf("live text search misses the new name: %v", hits)
	}
	// The live store sees everything.
	if s.Current().GetShared("kg:C2") != nil || s.Current().GetShared("kg:C3") == nil {
		t.Fatal("live store does not reflect the writes")
	}
	if s.Current().GetShared("kg:C1").Name() != "Second City" {
		t.Fatal("live store does not reflect the overwrite")
	}
}

// TestSnapshotDeleteFirst makes Delete the first write after a snapshot:
// the delete must copy the entity map and the indexes it shares with the
// snapshot before removing anything, so the snapshot keeps the entity, its
// postings and its text hit while the store loses them.
func TestSnapshotDeleteFirst(t *testing.T) {
	s := NewStore()
	s.Put(cityEntity("kg:C1", "Chicago", "kg:US", 2700000), 0.5)
	s.Put(cityEntity("kg:C2", "Boston", "kg:US", 650000), 0.2)

	sn := s.Snapshot()
	if !s.Delete("kg:C1") {
		t.Fatal("Delete(kg:C1) = false")
	}

	if sn.Len() != 2 || sn.GetShared("kg:C1") == nil {
		t.Fatal("snapshot lost the entity deleted after the cut")
	}
	if ids := sn.ByAttr(triple.PredName, "Chicago"); len(ids) != 1 || ids[0] != "kg:C1" {
		t.Fatalf("snapshot ByAttr lost the posting: %v", ids)
	}
	if ids := sn.InRefs("located_in", "kg:US"); len(ids) != 2 {
		t.Fatalf("snapshot InRefs lost the reverse posting: %v", ids)
	}
	if ids := sn.ByType("city"); len(ids) != 2 {
		t.Fatalf("snapshot ByType lost the type posting: %v", ids)
	}
	if sn.Boost("kg:C1") != 0.5 {
		t.Fatalf("snapshot boost = %f, want 0.5", sn.Boost("kg:C1"))
	}
	if hits := sn.SearchText("Chicago", 3); len(hits) != 1 || hits[0].ID != "kg:C1" {
		t.Fatalf("snapshot text search lost the hit: %v", hits)
	}

	if s.Current().Len() != 1 || s.Current().GetShared("kg:C1") != nil {
		t.Fatal("store kept the deleted entity")
	}
	if len(s.Current().ByAttr(triple.PredName, "Chicago")) != 0 || len(s.Current().InRefs("located_in", "kg:US")) != 1 ||
		len(s.Current().ByType("city")) != 1 || s.Current().Boost("kg:C1") != 0 {
		t.Fatal("store kept the deleted entity's postings")
	}
	if hits := s.Current().SearchText("Chicago", 3); len(hits) != 0 {
		t.Fatalf("store text search still hits the deleted entity: %v", hits)
	}
}

// TestCurrentReadYourWrites: Current republishes whenever the version moved,
// so a Put is immediately visible through it.
func TestCurrentReadYourWrites(t *testing.T) {
	s := NewStore()
	s.Put(cityEntity("kg:C1", "Chicago", "", 0), 0)
	v := s.Current()
	if v.Version() != s.Version() || v.GetShared("kg:C1") == nil {
		t.Fatal("Current is stale after Put")
	}
	s.Put(cityEntity("kg:C2", "Boston", "", 0), 0)
	if s.Current().GetShared("kg:C2") == nil {
		t.Fatal("Current did not republish after the second Put")
	}
}

// TestServingBoundedStaleness: Serving reuses the published snapshot inside
// the staleness window and converges to the store's version after it.
func TestServingBoundedStaleness(t *testing.T) {
	s := NewStore()
	s.Put(cityEntity("kg:C1", "Chicago", "", 0), 0)
	sn := s.Serving()
	if sn.Version() != s.Version() {
		t.Fatalf("first Serving call lags: %d != %d", sn.Version(), s.Version())
	}
	s.Put(cityEntity("kg:C2", "Boston", "", 0), 0)
	// Within the window Serving may return the previous cut, but never one
	// older than it.
	if got := s.Serving().Version(); got < sn.Version() {
		t.Fatalf("Serving went backwards: %d < %d", got, sn.Version())
	}
	time.Sleep(2 * servingStaleness)
	if got := s.Serving().Version(); got != s.Version() {
		t.Fatalf("Serving stale beyond the window: %d != %d", got, s.Version())
	}
	// A quiesced store keeps returning the same published snapshot.
	a, b := s.Serving(), s.Serving()
	if a != b {
		t.Fatal("Serving republished with no writes")
	}
}

// TestPublishedSnapshotVersionMonotonic: racing republishers must never move
// the published snapshot back — Current and Serving used to capture under the
// publication gate but store the result outside it, so the older of two
// racing captures could overwrite the newer and a reader saw the store
// version go back. Every reader's observed versions must be non-decreasing
// while writers stream Puts. Run with -race -count=20.
func TestPublishedSnapshotVersionMonotonic(t *testing.T) {
	// More Ps than cores, so the OS deschedules a republisher anywhere —
	// also between its capture and its publish, the window the bug needed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * runtime.NumCPU()))
	s := NewStore()
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Put(cityEntity(fmt.Sprintf("kg:C%d-%d", w, i%64), "City", "kg:US", int64(i)), 0.1)
			}
		}(w)
	}
	for r := 0; r < 4*runtime.NumCPU(); r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var last uint64
			for i := 0; i < 20000; i++ {
				var sn *Snapshot
				if i%2 == 0 {
					sn = s.Current()
				} else {
					sn = s.Serving()
				}
				v := sn.Version()
				if v < last {
					t.Errorf("reader %d: published version went back: %d after %d", r, v, last)
					return
				}
				last = v
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestSnapshotIsWriteAtomicCut: every snapshot, however it is taken, is one
// write-atomic cut. Two writers alternate whole stable views A and B over
// the same IDs, with different names, types and boosts, and Put and Delete
// streaming entities; readers take Current, Serving and Snapshot views. In
// each one the records, the type and attribute indexes, the text hits and
// their scores, and the boosts must all come from A or all from B, and the
// streaming entities must agree between the KV and the type index. Two
// snapshots at one version must have the same content. Run with -race.
func TestSnapshotIsWriteAtomicCut(t *testing.T) {
	const n = 8
	type view struct {
		typ, name string
		ents      []*triple.Entity
		boosts    map[triple.EntityID]float64
	}
	views := [2]*view{{typ: "city", name: "alpha"}, {typ: "human", name: "bravo"}}
	ids := make([]triple.EntityID, n)
	for i := range ids {
		ids[i] = triple.EntityID(fmt.Sprintf("kg:S%d", i))
	}
	for v, vw := range views {
		vw.boosts = make(map[triple.EntityID]float64, n)
		for i, id := range ids {
			e := triple.NewEntity(id)
			e.AddFact(triple.PredType, triple.String(vw.typ))
			e.AddFact(triple.PredName, triple.String(vw.name))
			vw.ents = append(vw.ents, e)
			// A ranks S7 first, B ranks S0 first; no ID has one boost in both.
			vw.boosts[id] = float64(1+i+v*(n-1-2*i)) / n
		}
	}
	game := func(j int) triple.EntityID { return triple.EntityID(fmt.Sprintf("live:feed:g%d", j)) }

	s := NewStore()
	c := &Constructor{Store: s}
	c.LoadStableView(views[0].ents, views[0].boosts)
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				vw := views[(i+w)%2]
				c.LoadStableView(vw.ents, vw.boosts)
				g := triple.NewEntity(game(i % 4))
				g.AddFact(triple.PredType, triple.String("game"))
				s.Put(g, 0)
				s.Delete(game((i + 2*w + 1) % 4))
			}
		}(w)
	}

	// check returns the snapshot's signature (view name plus streaming IDs),
	// or an error naming the first read that disagrees with the view.
	check := func(sn *Snapshot) (string, error) {
		var vw, other *view
		switch sn.GetShared(ids[0]) {
		case views[0].ents[0]:
			vw, other = views[0], views[1]
		case views[1].ents[0]:
			vw, other = views[1], views[0]
		default:
			return "", fmt.Errorf("GetShared(%s) is in neither view", ids[0])
		}
		for i, id := range ids {
			if sn.GetShared(id) != vw.ents[i] {
				return "", fmt.Errorf("GetShared(%s) is not view %s's record", id, vw.name)
			}
			if got := sn.Boost(id); got != vw.boosts[id] {
				return "", fmt.Errorf("view %s: Boost(%s) = %v, want %v", vw.name, id, got, vw.boosts[id])
			}
		}
		if got := sn.ByType(vw.typ); !slices.Equal(got, ids) {
			return "", fmt.Errorf("view %s: ByType(%q) = %v", vw.name, vw.typ, got)
		}
		if got := sn.ByType(other.typ); len(got) != 0 {
			return "", fmt.Errorf("view %s: ByType(%q) = %v", vw.name, other.typ, got)
		}
		if got := sn.ByAttr(triple.PredName, vw.name); !slices.Equal(got, ids) {
			return "", fmt.Errorf("view %s: ByAttr(name, %q) = %v", vw.name, vw.name, got)
		}
		if got := sn.ByAttr(triple.PredName, other.name); len(got) != 0 {
			return "", fmt.Errorf("view %s: ByAttr(name, %q) = %v", vw.name, other.name, got)
		}
		var games []triple.EntityID
		for j := 0; j < 4; j++ {
			if sn.GetShared(game(j)) != nil {
				games = append(games, game(j))
			}
		}
		if got := sn.ByType("game"); !slices.Equal(got, games) || sn.Len() != n+len(games) {
			return "", fmt.Errorf("ByType(game) = %v, KV holds %v of %d entities", got, games, sn.Len())
		}
		if hits := sn.SearchText(other.name, n); len(hits) != 0 {
			return "", fmt.Errorf("view %s: SearchText(%q) = %v", vw.name, other.name, hits)
		}
		// Every stable document is the one token vw.name and every streaming
		// document is empty, so each hit's score is one BM25 value over the
		// snapshot's entity count, times 1 + its boost.
		docs := float64(sn.Len())
		idf := math.Log(1 + (docs-n+0.5)/(n+0.5))
		bm25 := idf * 2.2 / (1 + 1.2*(0.25+0.75*docs/n))
		hits := sn.SearchText(vw.name, n)
		if len(hits) != n {
			return "", fmt.Errorf("view %s: SearchText(%q) = %v", vw.name, vw.name, hits)
		}
		for _, h := range hits {
			want := bm25 * (1 + vw.boosts[triple.EntityID(h.ID)])
			if math.Abs(h.Score-want) > 1e-9*want {
				return "", fmt.Errorf("view %s: SearchText(%q) scores %s %v, want %v", vw.name, vw.name, h.ID, h.Score, want)
			}
		}
		return fmt.Sprint(vw.name, games), nil
	}

	var signatures sync.Map // version -> signature
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				var sn *Snapshot
				switch (i + r) % 3 {
				case 0:
					sn = s.Current()
				case 1:
					sn = s.Serving()
				default:
					sn = s.Snapshot()
				}
				sig, err := check(sn)
				if err != nil {
					t.Errorf("reader %d, version %d: %v", r, sn.Version(), err)
					return
				}
				if prev, loaded := signatures.LoadOrStore(sn.Version(), sig); loaded && prev != sig {
					t.Errorf("reader %d: two snapshots at version %d differ: %s and %s", r, sn.Version(), prev, sig)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
