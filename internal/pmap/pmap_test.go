package pmap

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"weak"
)

// check fails unless m holds exactly want, in key order.
func check(t *testing.T, m Map[int, int], want map[int]int) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(want))
	}
	keys := make([]int, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	i := 0
	for k, v := range m.All() {
		if i >= len(keys) || k != keys[i] || v != want[k] {
			t.Fatalf("All()[%d] = %d:%d, want %v", i, k, v, keys[i:min(i+1, len(keys))])
		}
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, got, ok, v)
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("All() yielded %d keys, want %d", i, len(keys))
	}
}

// TestMapMatchesModel runs random sets and deletes against a Go map, takes
// snapshots at random points, and at the end checks every snapshot still
// holds what the model held when it was taken.
func TestMapMatchesModel(t *testing.T) {
	steps := 200_000
	if testing.Short() {
		steps = 20_000
	}
	r := rand.New(rand.NewSource(1))
	type snap struct {
		m    Map[int, int]
		want map[int]int
	}
	var (
		m     Map[int, int]
		o     = new(Owner)
		model = map[int]int{}
		snaps []snap
	)
	for step := 0; step < steps; step++ {
		// Drift the key range so that whole subtrees empty and refill.
		k := r.Intn(4096) + step/100
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			if v, ok := m.Delete(o, k); v != model[k] || ok != (model[k] != 0) {
				t.Fatalf("step %d: Delete(%d) = %d, %v; want %d", step, k, v, ok, model[k])
			}
			delete(model, k)
		default:
			m.Set(o, k, step+1)
			model[k] = step + 1
		}
		if got, ok := m.Get(k); got != model[k] || ok != (model[k] != 0) {
			t.Fatalf("step %d: Get(%d) = %d, %v; want %d", step, k, got, ok, model[k])
		}
		if r.Intn(1000) == 0 {
			want := make(map[int]int, len(model))
			for k, v := range model {
				want[k] = v
			}
			snaps = append(snaps, snap{m, want})
			o = new(Owner)
		}
	}
	check(t, m, model)
	for _, s := range snaps {
		check(t, s.m, s.want)
	}
	for k := range model {
		m.Delete(o, k)
	}
	if m.Len() != 0 || m.root != nil {
		t.Fatalf("emptied map: Len %d, root %v", m.Len(), m.root)
	}
}

// TestInOrderInsertsFillLeaves: keys set in increasing order, as links and
// minted IDs arrive, leave every leaf full, where splitting at the middle
// would leave them half full and the map twice its size.
func TestInOrderInsertsFillLeaves(t *testing.T) {
	var m Map[int, int]
	o := new(Owner)
	want := map[int]int{}
	for k := range 10 * maxItems {
		m.Set(o, k, -k)
		want[k] = -k
	}
	check(t, m, want)
	var leaves func(n *node[int, int]) int
	leaves = func(n *node[int, int]) int {
		if n.items[0].kid == nil {
			return 1
		}
		c := 0
		for _, it := range n.items {
			c += leaves(it.kid)
		}
		return c
	}
	if got := leaves(m.root); got != 10 {
		t.Fatalf("%d keys set in order fill %d leaves, want 10", m.Len(), got)
	}
}

// TestNestedMapsFreezeTogether: a map held as a value freezes with the map
// that holds it, and DeleteIn drops an inner map once it empties.
func TestNestedMapsFreezeTogether(t *testing.T) {
	var m Map[string, Map[int, int]]
	o := new(Owner)
	for i := 0; i < 100; i++ {
		SetIn(o, &m, "even", 2*i, i)
	}
	SetIn(o, &m, "odd", 1, 1)
	snap := m
	o = new(Owner)
	for i := 0; i < 100; i++ {
		DeleteIn(o, &m, "even", 2*i)
	}
	SetIn(o, &m, "odd", 3, 3)
	if even, ok := snap.Get("even"); !ok || even.Len() != 100 {
		t.Fatalf("snapshot's inner map changed: %d keys", even.Len())
	}
	if odd, _ := snap.Get("odd"); odd.Len() != 1 {
		t.Fatalf("snapshot's inner map grew to %d keys", odd.Len())
	}
	if _, ok := m.Get("even"); ok || m.Len() != 1 {
		t.Fatalf("emptied inner map kept: Len %d", m.Len())
	}
}

// TestSnapshotReadersRace: one writer publishes snapshots while readers
// re-read each one; every snapshot must stay equal to the checksum taken at
// publication. Run it with -race.
func TestSnapshotReadersRace(t *testing.T) {
	type published struct {
		m   Map[int, int]
		sum int
	}
	var cur atomic.Pointer[published]
	cur.Store(&published{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p := cur.Load()
				for range 2 {
					sum, n := 0, 0
					for _, v := range p.m.All() {
						sum += v
						n++
					}
					if sum != p.sum || n != p.m.Len() {
						t.Errorf("snapshot changed: sum %d (want %d), %d keys (Len %d)", sum, p.sum, n, p.m.Len())
						return
					}
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(2))
	var m Map[int, int]
	o := new(Owner)
	model := map[int]int{}
	sum := 0
	for step := 1; step <= 20_000; step++ {
		k := r.Intn(2000)
		sum -= model[k]
		if r.Intn(3) == 0 {
			m.Delete(o, k)
			delete(model, k)
		} else {
			m.Set(o, k, step)
			model[k] = step
			sum += step
		}
		if step%50 == 0 {
			cur.Store(&published{m, sum})
			o = new(Owner)
		}
	}
	close(done)
	wg.Wait()
}

// TestReplacedValuesAreReleased: once every value is replaced or deleted and
// no snapshot is held, the map keeps no reference to an old value: a split, a
// delete or a node outgrowing its inline buffer must not leave one behind in
// an array the map still holds.
func TestReplacedValuesAreReleased(t *testing.T) {
	// Big enough to stay out of the tiny allocator, whose blocks can keep a
	// weak pointer alive for an unrelated neighbour.
	type record struct {
		n   int
		pad [3]int
	}
	for _, size := range []int{6, 5000} {
		var m Map[int, *record]
		o := new(Owner)
		var old []weak.Pointer[record]
		keys := rand.New(rand.NewSource(3)).Perm(size)
		for i, k := range keys {
			v := &record{n: k}
			old = append(old, weak.Make(v))
			m.Set(o, k, v)
			if i%997 == 0 && i < size/2 {
				o = new(Owner) // as at a snapshot: later writes copy their paths
			}
		}
		for _, k := range keys[:size/5] {
			m.Delete(o, k)
		}
		for _, k := range keys[size/5:] {
			m.Set(o, k, &record{n: -k})
		}
		runtime.GC()
		for i, p := range old {
			if p.Value() != nil {
				t.Fatalf("size %d: old value %d still reachable", size, i)
			}
		}
		if m.Len() != size-size/5 {
			t.Fatalf("Len = %d, want %d", m.Len(), size-size/5)
		}
	}
}
