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

func TestMultiGet(t *testing.T) {
	s := New()
	s.Put(entity("kg:E1", "A"))
	s.Put(entity("kg:E2", "B"))
	got, err := s.MultiGet([]triple.EntityID{"kg:E1", "kg:missing", "kg:E2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("multiget = %d", len(got))
	}
}

func TestMultiGetLocksOncePerShard(t *testing.T) {
	kv := NewMemKV()
	s := NewWith(kv)
	ids := make([]triple.EntityID, 512)
	for i := range ids {
		ids[i] = triple.EntityID(fmt.Sprintf("kg:E%d", i))
		if err := s.Put(entity(string(ids[i]), "x")); err != nil {
			t.Fatal(err)
		}
	}
	before := kv.ReadLocks()
	got, err := s.MultiGet(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("multiget = %d, want %d", len(got), len(ids))
	}
	locks := kv.ReadLocks() - before
	// 512 IDs spread over 64 shards: one acquisition per touched shard, not
	// one per ID.
	if locks > kvShardCount {
		t.Fatalf("MultiGet took %d read locks for %d ids; want <= %d (once per shard)",
			locks, len(ids), kvShardCount)
	}
}

// BenchmarkMultiGet quantifies the batched-locking win: grouping IDs by
// shard turns N lock acquisitions into at most one per touched shard. The
// locks/op metric makes the reduction visible next to ns/op.
func BenchmarkMultiGet(b *testing.B) {
	const n = 256
	setup := func() (*Store, *MemKV, []triple.EntityID) {
		kv := NewMemKV()
		s := NewWith(kv)
		ids := make([]triple.EntityID, n)
		for i := range ids {
			ids[i] = triple.EntityID(fmt.Sprintf("kg:E%d", i))
			if err := s.Put(entity(string(ids[i]), "payload")); err != nil {
				b.Fatal(err)
			}
		}
		return s, kv, ids
	}
	b.Run("PerIDGet", func(b *testing.B) {
		s, kv, ids := setup()
		start := kv.ReadLocks()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if _, err := s.Get(id); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(kv.ReadLocks()-start)/float64(b.N), "locks/op")
	})
	b.Run("Batched", func(b *testing.B) {
		s, kv, ids := setup()
		start := kv.ReadLocks()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MultiGet(ids); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(kv.ReadLocks()-start)/float64(b.N), "locks/op")
	})
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
