package entitystore

import (
	"fmt"
	"sync"
	"testing"

	"saga/internal/triple"
)

func entity(id, name string) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(id))
	e.Add(triple.New("", triple.PredName, triple.String(name)).WithSource("s", 0.9))
	return e
}

func TestPutGetDelete(t *testing.T) {
	s := New()
	if err := s.Put(entity("kg:E1", "Adele")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("kg:E1")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Name() != "Adele" {
		t.Fatalf("got = %+v", got)
	}
	if got.Triples[0].Sources[0] != "s" {
		t.Fatal("provenance lost in round trip")
	}
	if missing, _ := s.Get("kg:nope"); missing != nil {
		t.Fatal("phantom entity")
	}
	if ok, err := s.Delete("kg:E1"); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Fatal("delete reported false")
	}
	if ok, err := s.Delete("kg:E1"); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("double delete reported true")
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	s := New()
	s.Put(entity("kg:E1", "Old"))
	s.Put(entity("kg:E1", "New"))
	got, _ := s.Get("kg:E1")
	if got.Name() != "New" {
		t.Fatalf("name = %s", got.Name())
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("kg:E%d-%d", w, i)
				if err := s.Put(entity(id, id)); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Get(triple.EntityID(id)); err != nil || got == nil {
					t.Errorf("get %s: %v %v", id, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Bytes() == 0 {
		t.Fatal("bytes = 0")
	}
}
