package gen

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func batches(seed int64) []byte {
	s := NewStream(seed, DefaultSpec())
	var out []Batch
	for i := 0; i < 3; i++ {
		out = append(out, s.Next(Mix{Adds: 40}))
	}
	for i := 0; i < 20; i++ {
		out = append(out, s.Next(Mix{Adds: 4, Updates: 2, Overwrites: 6}))
	}
	p, _ := s.Probe(7)
	out = append(out, p)
	b, err := json.Marshal(struct {
		Batches []Batch
		Truth   map[string]int
		Reads   []Request
	}{out, s.Truth, Requests(seed, 2000, s.Added(), s.Names())})
	if err != nil {
		panic(err)
	}
	return b
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := batches(11), batches(11)
	if string(a) != string(b) {
		t.Fatal("two generations from one seed differ")
	}
	if string(a) == string(batches(12)) {
		t.Fatal("seeds 11 and 12 generate the same inputs")
	}
}

func TestUniverseDoesNotSaturate(t *testing.T) {
	n := newNames(3)
	seen := make(map[string]int, 300000)
	for u := 0; u < 300000; u++ {
		name := n.name(u)
		if v, dup := seen[name]; dup {
			t.Fatalf("universe entities %d and %d share the name %q", v, u, name)
		}
		seen[name] = u
	}
	if a, b := n.name(probeBase), n.name(probeBase+1); a == b || seen[a] != 0 || seen[b] != 0 {
		t.Fatalf("probe names %q, %q collide with the walk", a, b)
	}
}

func TestBatchNeverCarriesOneEntityFromTwoSources(t *testing.T) {
	s := NewStream(5, DefaultSpec())
	for i := 0; i < 40; i++ {
		b := s.Next(Mix{Adds: 64})
		seen := make(map[int]string)
		for _, d := range b.Deltas {
			for _, e := range d.Added {
				if e.Type != "human" {
					continue
				}
				u := s.Truth[e.ID()]
				if src, dup := seen[u]; dup && src != d.Source {
					t.Fatalf("batch %d carries universe entity %d from %s and %s", i, u, src, d.Source)
				}
				seen[u] = d.Source
			}
		}
	}
}

func TestSourcesOverlap(t *testing.T) {
	s := NewStream(5, DefaultSpec())
	for i := 0; i < 30; i++ {
		s.Next(Mix{Adds: 20})
	}
	perUniverse := make(map[int]int)
	for id, u := range s.Truth {
		if len(id) > 0 {
			perUniverse[u]++
		}
	}
	shared := 0
	for _, n := range perUniverse {
		if n > 1 {
			shared++
		}
	}
	if share := float64(shared) / float64(len(perUniverse)); share < 0.5 {
		t.Fatalf("only %.0f%% of the universe entities are described twice or more", 100*share)
	}
}

func TestZipfShape(t *testing.T) {
	ids := make([]string, 500)
	for i := range ids {
		ids[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	names := []string{"x y", "z w", "p q", "r s", "t u", "v a", "b c", "d e", "f g", "h i", "j k", "l m"}
	reqs := Requests(9, 100000, ids, names)
	rank := make(map[string]int, len(ids))
	for i, id := range ids {
		rank[id] = i
	}
	var head, all, hot, queries float64
	for _, r := range reqs {
		switch r.Class {
		case EntityGet:
			all++
			if rank[r.ID] < 10 {
				head++
			}
		case QueryHot:
			hot++
			queries++
		case QueryTail:
			queries++
		}
	}
	want := zipfShare(1.2, len(ids), 10)
	if got := head / all; math.Abs(got-want) > 0.03 {
		t.Errorf("top-10 ids take %.3f of the entity reads, Zipf(1.2) over %d gives %.3f", got, len(ids), want)
	}
	if got := all / float64(len(reqs)); math.Abs(got-0.2) > 0.001 {
		t.Errorf("entity reads are %.3f of the mix, want 0.2", got)
	}
	if got := hot / queries; math.Abs(got-0.8) > 0.01 {
		t.Errorf("hot texts are %.3f of the queries, want 0.8", got)
	}
}

func TestPairwiseF1(t *testing.T) {
	truth := map[string]int{"a:1": 1, "b:1": 1, "c:1": 1, "a:2": 2, "b:2": 2}
	perfect := map[string]string{"a:1": "k1", "b:1": "k1", "c:1": "k1", "a:2": "k2", "b:2": "k2"}
	if got := PairwiseF1(perfect, truth); got != 1 {
		t.Errorf("perfect clustering scores %v", got)
	}
	// One entity split off: 2 of 4 true pairs found, no false ones.
	split := map[string]string{"a:1": "k1", "b:1": "k1", "c:1": "k3", "a:2": "k2", "b:2": "k2"}
	if got, want := PairwiseF1(split, truth), 2*1*0.5/(1+0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("split clustering scores %v, want %v", got, want)
	}
	// Everything merged: 4 true pairs among 10 predicted.
	merged := map[string]string{"a:1": "k", "b:1": "k", "c:1": "k", "a:2": "k", "b:2": "k"}
	if got, want := PairwiseF1(merged, truth), 2*0.4*1/(0.4+1); math.Abs(got-want) > 1e-12 {
		t.Errorf("merged clustering scores %v, want %v", got, want)
	}
	if !reflect.DeepEqual(PairwiseF1(nil, truth), 0.0) {
		t.Error("empty clustering must score 0")
	}
}

// zipfShare is the probability mass a Zipf(s) over n ranks puts on its first
// k ranks.
func zipfShare(s float64, n, k int) float64 {
	var head, all float64
	for i := 1; i <= n; i++ {
		w := math.Pow(float64(i), -s)
		all += w
		if i <= k {
			head += w
		}
	}
	return head / all
}
