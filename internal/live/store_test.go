package live

import (
	"fmt"
	"sync"
	"testing"

	"saga/internal/triple"
)

func cityEntity(id, name, country string, pop int64) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(id))
	e.AddFact(triple.PredType, triple.String("city"))
	e.AddFact(triple.PredName, triple.String(name))
	if country != "" {
		e.AddFact("located_in", triple.Ref(triple.EntityID(country)))
	}
	if pop > 0 {
		e.AddFact("population", triple.Int(pop))
	}
	return e
}

func TestStorePutGetDelete(t *testing.T) {
	s := NewStore()
	s.Put(cityEntity("kg:C1", "Chicago", "kg:US", 2700000), 0.5)
	got := s.Current().GetShared("kg:C1")
	if got == nil || got.Name() != "Chicago" {
		t.Fatalf("got = %+v", got)
	}
	if s.Current().Boost("kg:C1") != 0.5 {
		t.Fatalf("boost = %f", s.Current().Boost("kg:C1"))
	}
	if v0 := s.Version(); v0 == 0 {
		t.Fatal("version not bumped")
	}
	if !s.Delete("kg:C1") || s.Delete("kg:C1") {
		t.Fatal("delete semantics wrong")
	}
	if s.Current().GetShared("kg:C1") != nil || s.Current().Len() != 0 {
		t.Fatal("entity survived delete")
	}
}

func TestStoreIndexes(t *testing.T) {
	s := NewStore()
	s.Put(cityEntity("kg:C1", "Chicago", "kg:US", 2700000), 0)
	s.Put(cityEntity("kg:C2", "Springfield", "kg:US", 110000), 0)
	s.Put(cityEntity("kg:C3", "Paris", "kg:FR", 2100000), 0)

	sn := s.Current()
	if ids := sn.ByType("city"); len(ids) != 3 {
		t.Fatalf("by type = %v", ids)
	}
	if ids := sn.ByAttr(triple.PredName, "chicago"); len(ids) != 1 || ids[0] != "kg:C1" {
		t.Fatalf("by attr (case-insensitive) = %v", ids)
	}
	if ids := sn.InRefs("located_in", "kg:US"); len(ids) != 2 {
		t.Fatalf("reverse refs = %v", ids)
	}
	hits := sn.SearchText("chicago", 5)
	if len(hits) != 1 || hits[0].ID != "kg:C1" {
		t.Fatalf("text search = %v", hits)
	}
}

func TestStoreReplaceReindexes(t *testing.T) {
	s := NewStore()
	s.Put(cityEntity("kg:C1", "Old Town", "kg:US", 1), 0)
	s.Put(cityEntity("kg:C1", "New Town", "kg:CA", 1), 0)
	sn := s.Current()
	if ids := sn.ByAttr(triple.PredName, "old town"); len(ids) != 0 {
		t.Fatalf("stale attr postings: %v", ids)
	}
	if ids := sn.InRefs("located_in", "kg:US"); len(ids) != 0 {
		t.Fatalf("stale reverse postings: %v", ids)
	}
	if ids := sn.InRefs("located_in", "kg:CA"); len(ids) != 1 {
		t.Fatalf("new reverse postings: %v", ids)
	}
}

func TestStoreCompositeIndexing(t *testing.T) {
	s := NewStore()
	e := triple.NewEntity("kg:H1")
	e.AddFact(triple.PredType, triple.String("human"))
	e.AddRelFact("educated_at", "r1", "school", triple.Ref("kg:UW"))
	s.Put(e, 0)
	if ids := s.Current().InRefs("educated_at.school", "kg:UW"); len(ids) != 1 || ids[0] != "kg:H1" {
		t.Fatalf("composite reverse refs = %v", ids)
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Put(cityEntity(fmt.Sprintf("kg:W%d-%d", w, i), fmt.Sprintf("city %d %d", w, i), "kg:US", 1), 0)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Current().ByType("city")
				s.Current().SearchText("city", 3)
			}
		}()
	}
	wg.Wait()
	if s.Current().Len() != 400 {
		t.Fatalf("len = %d", s.Current().Len())
	}
}
