package live

import (
	"fmt"
	"runtime"
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
	if hits := s.SearchText("Second", 3); len(hits) != 1 || hits[0].ID != "kg:C1" {
		t.Fatalf("live text search misses the new name: %v", hits)
	}
	// The live store sees everything.
	if s.GetShared("kg:C2") != nil || s.GetShared("kg:C3") == nil {
		t.Fatal("live store does not reflect the writes")
	}
	if s.GetShared("kg:C1").Name() != "Second City" {
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

	if s.Len() != 1 || s.GetShared("kg:C1") != nil {
		t.Fatal("store kept the deleted entity")
	}
	if len(s.ByAttr(triple.PredName, "Chicago")) != 0 || len(s.InRefs("located_in", "kg:US")) != 1 ||
		len(s.ByType("city")) != 1 || s.Boost("kg:C1") != 0 {
		t.Fatal("store kept the deleted entity's postings")
	}
	if hits := s.SearchText("Chicago", 3); len(hits) != 0 {
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
