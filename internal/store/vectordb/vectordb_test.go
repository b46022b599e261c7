package vectordb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestPutGetSearch(t *testing.T) {
	db, err := New(Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	db.Put("a", []float64{1, 0, 0}, map[string]string{"type": "human"})
	db.Put("b", []float64{0.9, 0.1, 0}, map[string]string{"type": "human"})
	db.Put("c", []float64{0, 0, 1}, map[string]string{"type": "song"})
	hits, err := db.Search([]float64{1, 0, 0}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].ID != "a" || hits[1].ID != "b" {
		t.Fatalf("hits = %v", hits)
	}
	if math.Abs(hits[0].Score-1) > 1e-9 {
		t.Fatalf("self score = %f", hits[0].Score)
	}
	// Attribute filter restricts to the "people embeddings" subset.
	hits, _ = db.Search([]float64{0, 0, 1}, 5, AttrEquals("type", "human"))
	for _, h := range hits {
		if h.ID == "c" {
			t.Fatal("filter leaked")
		}
	}
	if got := db.Get("a"); got == nil || got[0] != 1 {
		t.Fatalf("get = %v", got)
	}
	if db.Get("missing") != nil {
		t.Fatal("phantom vector")
	}
	// Replacing without attributes drops the old ones.
	db.Put("c", []float64{0, 0, 1}, nil)
	if hits, _ := db.Search([]float64{0, 0, 1}, 5, AttrEquals("type", "song")); len(hits) != 0 {
		t.Fatalf("replaced attributes survived: %v", hits)
	}
	if db.Len() != 3 {
		t.Fatalf("len = %d, want 3", db.Len())
	}
}

func TestDimensionChecks(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("zero dim accepted")
	}
	db, _ := New(Options{Dim: 4})
	if err := db.Put("x", []float64{1}, nil); err == nil {
		t.Fatal("wrong-dim put accepted")
	}
	if _, err := db.Search([]float64{1}, 1, nil); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
}

func TestDelete(t *testing.T) {
	db, _ := New(Options{Dim: 2, LSHTables: 2, Seed: 1})
	db.Put("a", []float64{1, 0}, nil)
	if !db.Delete("a") {
		t.Fatal("delete false")
	}
	if db.Delete("a") {
		t.Fatal("double delete true")
	}
	hits, _ := db.SearchANN([]float64{1, 0}, 5, nil)
	if len(hits) != 0 {
		t.Fatalf("deleted vector returned: %v", hits)
	}
	for i, buckets := range db.lsh.buckets {
		if len(buckets) != 0 {
			t.Fatalf("table %d still indexes the deleted vector: %v", i, buckets)
		}
	}
}

func TestPutReplacesInLSH(t *testing.T) {
	db, _ := New(Options{Dim: 2, LSHTables: 4, LSHBits: 4, Seed: 1})
	db.Put("a", []float64{1, 0}, nil)
	db.Put("a", []float64{-1, 0}, nil) // moves to a different bucket
	hits, _ := db.SearchANN([]float64{-1, 0}, 5, nil)
	found := false
	for _, h := range hits {
		if h.ID == "a" {
			found = true
			if math.Abs(h.Score-1) > 1e-9 {
				t.Fatalf("score = %f", h.Score)
			}
		}
	}
	if !found {
		t.Fatal("replaced vector not found at new location")
	}
	if db.Len() != 1 {
		t.Fatalf("len = %d", db.Len())
	}
	// The replace unindexed the previous vector: each table holds "a" once.
	for i, buckets := range db.lsh.buckets {
		n := 0
		for _, ids := range buckets {
			n += len(ids)
		}
		if n != 1 {
			t.Fatalf("table %d holds %d entries after a replace, want 1", i, n)
		}
	}
}

func TestANNRecall(t *testing.T) {
	const dim, n = 16, 2000
	db, _ := New(Options{Dim: dim, LSHTables: 8, LSHBits: 10, Seed: 7})
	rng := rand.New(rand.NewSource(42))
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		vecs[i] = v
		db.Put(fmt.Sprintf("v%d", i), v, nil)
	}
	// Query with slightly perturbed versions of stored vectors; the true
	// nearest neighbour is the original.
	const queries, k = 50, 10
	recall := 0
	for q := 0; q < queries; q++ {
		base := vecs[rng.Intn(n)]
		query := make([]float64, dim)
		for d := range query {
			query[d] = base[d] + 0.05*rng.NormFloat64()
		}
		exact, _ := db.Search(query, 1, nil)
		ann, _ := db.SearchANN(query, k, nil)
		for _, h := range ann {
			if h.ID == exact[0].ID {
				recall++
				break
			}
		}
	}
	if recall < queries*7/10 {
		t.Fatalf("ANN recall = %d/%d, want >= 70%%", recall, queries)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Fatalf("orthogonal = %f", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 0}); got != 0 {
		t.Fatalf("zero vector = %f", got)
	}
	if got := Cosine([]float64{1, 1}, []float64{-1, -1}); math.Abs(got+1) > 1e-9 {
		t.Fatalf("opposite = %f", got)
	}
}
