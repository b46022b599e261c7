package conformance

import (
	"math"
	"path/filepath"
	"testing"

	"saga/internal/storage"
	"saga/internal/storage/disk"
	"saga/internal/store/entitystore"
	"saga/internal/store/textindex"
	"saga/internal/store/vectordb"
)

// TestMemoryBackend runs the in-memory medium: the entity store's in-memory
// KV. A volatile log has no record log (it keeps its ops' payloads itself),
// so that role has no in-memory implementation.
func TestMemoryBackend(t *testing.T) {
	Suite{
		EntityKV: func(string) (storage.EntityKV, error) { return entitystore.NewMemKV(), nil },
	}.Run(t)
	t.Run("Postings", postings)
	t.Run("Vectors", vectors)
}

// TestDiskBackend runs every role of the disk medium, durable subtests
// included.
func TestDiskBackend(t *testing.T) {
	Suite{
		RecordLog: func(dir string) (storage.RecordLog, error) { return disk.OpenRecordLog(dir, 0) },
		BlobStore: func(dir string) (storage.BlobStore, error) { return disk.OpenSegmentBlobStore(dir, 0) },
		EntityKV: func(dir string) (storage.EntityKV, error) {
			return disk.OpenEntityKV(filepath.Join(dir, "entities.dat"))
		},
		Durable: true,
	}.Run(t)
	t.Run("Postings", postings)
	t.Run("Vectors", vectors)
}

// Postings and vectors are not storage roles: on both media the live store
// serves text and vector search from the in-process textindex and vectordb.
// postings and vectors pin the contract the live store relies on from them,
// and run beside each medium's suite.

// bm25 is the single-term BM25 score of a document at the index defaults
// (k1 = 1.2, b = 0.75), before the boost.
func bm25(tf, docLen, df, docs, totalLen int) float64 {
	const k1, b = 1.2, 0.75
	idf := math.Log(1 + (float64(docs)-float64(df)+0.5)/(float64(df)+0.5))
	avgLen := float64(totalLen) / float64(docs)
	return idf * float64(tf) * (k1 + 1) / (float64(tf) + k1*(1-b+b*float64(docLen)/avgLen))
}

// checkScores asserts hits are exactly want's IDs, in order, with scores
// equal to want's up to float rounding.
func checkScores(t *testing.T, label string, hits []textindex.Hit, want []textindex.Hit) {
	t.Helper()
	if len(hits) != len(want) {
		t.Fatalf("%s: hits = %v, want %v", label, hits, want)
	}
	for i := range want {
		if hits[i].ID != want[i].ID || math.Abs(hits[i].Score-want[i].Score) > 1e-12*want[i].Score {
			t.Fatalf("%s: hits = %v, want %v", label, hits, want)
		}
	}
}

func postings(t *testing.T) {
	ix := textindex.New()
	ix.Put("d1", "alpha alpha beta")
	ix.Put("d2", "beta beta beta beta")
	boost := func(id string) float64 {
		if id == "d2" {
			return 2
		}
		return 1
	}
	search := func(q string) []textindex.Hit { return ix.Snapshot().Search(q, 5, boost) }
	// Both documents post "beta"; the scores pin each document's length,
	// the total length (7) and the boosts.
	checkScores(t, "Search(beta)", search("beta"), []textindex.Hit{
		{ID: "d2", Score: 2 * bm25(4, 4, 2, 2, 7)},
		{ID: "d1", Score: bm25(1, 3, 2, 2, 7)},
	})
	// Put replaces: d1's old terms must vanish from the postings.
	ix.Put("d1", "gamma")
	if hits := search("alpha"); len(hits) != 0 {
		t.Fatalf("stale posting survived replace: %v", hits)
	}
	// The total length drops to 5 with d1's replacement.
	checkScores(t, "Search(gamma)", search("gamma"), []textindex.Hit{
		{ID: "d1", Score: bm25(1, 1, 1, 2, 5)},
	})
	if !ix.Delete("d2") {
		t.Fatal("delete reported false")
	}
	if ix.Delete("d2") {
		t.Fatal("double delete reported true")
	}
	// One document left: "gamma" scores against a corpus of one.
	if hits := search("beta"); len(hits) != 0 {
		t.Fatalf("deleted document still posted: %v", hits)
	}
	checkScores(t, "Search(gamma) after delete", search("gamma"), []textindex.Hit{
		{ID: "d1", Score: bm25(1, 1, 1, 1, 1)},
	})
}

func vectors(t *testing.T) {
	db, err := vectordb.New(vectordb.Options{Dim: 2, LSHTables: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("v1", []float64{1, 0}, map[string]string{"type": "human"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("v1", []float64{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got := db.Get("v1"); len(got) != 2 || got[1] != 1 {
		t.Fatalf("Get after replace = %v", got)
	}
	if err := db.Put("v2", []float64{1, 1}, map[string]string{"type": "song"}); err != nil {
		t.Fatal(err)
	}
	if got := db.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if hits, err := db.Search([]float64{1, 1}, 5, vectordb.AttrEquals("type", "song")); err != nil || len(hits) != 1 || hits[0].ID != "v2" {
		t.Fatalf("Search(type=song) = %v, %v", hits, err)
	}
	// Replacing without attributes drops the old ones.
	if hits, err := db.Search([]float64{0, 1}, 5, vectordb.AttrEquals("type", "human")); err != nil || len(hits) != 0 {
		t.Fatalf("replaced attributes survived: %v, %v", hits, err)
	}
	if hits, err := db.Search([]float64{1, 0}, 5, nil); err != nil || len(hits) != 2 {
		t.Fatalf("unfiltered Search saw %v, %v", hits, err)
	}
	// The replace reindexed v1: its new vector shares every bucket with an
	// identical query.
	if hits, err := db.SearchANN([]float64{0, 1}, 1, nil); err != nil || len(hits) != 1 || hits[0].ID != "v1" {
		t.Fatalf("SearchANN after replace = %v, %v", hits, err)
	}
	if !db.Delete("v1") {
		t.Fatal("delete reported false")
	}
	if db.Delete("v1") {
		t.Fatal("double delete reported true")
	}
	if db.Get("v1") != nil || db.Len() != 1 {
		t.Fatalf("after delete: Get = %v, Len = %d", db.Get("v1"), db.Len())
	}
}
