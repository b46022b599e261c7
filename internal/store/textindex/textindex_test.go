package textindex

import (
	"fmt"
	"testing"
)

func unboosted(string) float64 { return 1 }

// search runs one query on a fresh snapshot with every boost at 1.
func search(ix *Index, query string, k int) []Hit {
	return ix.Snapshot().Search(query, k, unboosted)
}

func TestSearchRanksRelevance(t *testing.T) {
	ix := New()
	ix.Put("e1", "Adele Laurie Blue Adkins singer")
	ix.Put("e2", "Adele pop singer from London")
	ix.Put("e3", "Quentin Tarantino film director")
	hits := search(ix, "adele singer", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	for _, h := range hits {
		if h.ID == "e3" {
			t.Fatal("irrelevant doc returned")
		}
	}
	if got := search(ix, "nonexistent term", 10); len(got) != 0 {
		t.Fatalf("hits for missing term = %v", got)
	}
}

func TestIDFWeighting(t *testing.T) {
	ix := New()
	// "the" appears everywhere, "zanzibar" once.
	for i := 0; i < 20; i++ {
		ix.Put(fmt.Sprintf("d%d", i), "the common filler document")
	}
	ix.Put("rare", "the zanzibar chronicle")
	hits := search(ix, "the zanzibar", 3)
	if len(hits) == 0 || hits[0].ID != "rare" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestBoost(t *testing.T) {
	ix := New()
	for _, id := range []string{"tail", "head", "same"} {
		ix.Put(id, "paris hotel")
	}
	boosts := map[string]float64{"tail": 1, "head": 5, "same": 1}
	hits := ix.Snapshot().Search("paris", 3, func(id string) float64 { return boosts[id] })
	if hits[0].ID != "head" {
		t.Fatalf("boost ignored: %v", hits)
	}
	if hits[1].ID != "same" || hits[2].ID != "tail" || hits[1].Score != hits[2].Score ||
		hits[0].Score != 5*hits[1].Score {
		t.Fatalf("score is not BM25 times the boost: %v", hits)
	}
}

// TestSnapshotFrozen: a snapshot keeps answering from its point in time
// while the index is written after it.
func TestSnapshotFrozen(t *testing.T) {
	ix := New()
	ix.Put("a", "paris hotel")
	ix.Put("b", "paris museum")
	sn := ix.Snapshot()
	before := sn.Search("paris", 5, unboosted)
	ix.Put("a", "london hotel")
	ix.Put("c", "paris opera")
	ix.Delete("b")
	if got := sn.Search("paris", 5, unboosted); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("snapshot moved under writes: %v -> %v", before, got)
	}
	if got := search(ix, "paris", 5); len(got) != 1 || got[0].ID != "c" {
		t.Fatalf("index after writes = %v", got)
	}
}

func TestDeleteAndReplace(t *testing.T) {
	ix := New()
	ix.Put("e1", "original text")
	ix.Put("e2", "kept document here")
	ix.Put("e1", "replaced words now")
	if got := search(ix, "original", 5); len(got) != 0 {
		t.Fatalf("stale postings: %v", got)
	}
	if got := search(ix, "replaced", 5); len(got) != 1 {
		t.Fatalf("new postings missing: %v", got)
	}
	// The replace swaps e1's length 2 for 3 in the total BM25 averages over.
	if ix.totalLen != 6 {
		t.Fatalf("total length after replace = %d, want 6", ix.totalLen)
	}
	if !ix.Delete("e1") {
		t.Fatal("delete false")
	}
	if ix.Delete("e1") {
		t.Fatal("double delete true")
	}
	if got := search(ix, "replaced", 5); len(got) != 0 {
		t.Fatalf("deleted doc returned: %v", got)
	}
	if len(ix.docTerms) != 1 || ix.totalLen != 3 {
		t.Fatalf("len = %d, total length = %d after delete", len(ix.docTerms), ix.totalLen)
	}
}

func TestTopKAndTies(t *testing.T) {
	ix := New()
	for i := 0; i < 10; i++ {
		ix.Put(fmt.Sprintf("d%d", i), "same exact text")
	}
	hits := search(ix, "same text", 3)
	if len(hits) != 3 {
		t.Fatalf("k not applied: %d", len(hits))
	}
	if hits[0].ID != "d0" || hits[1].ID != "d1" {
		t.Fatalf("ties not deterministic: %v", hits)
	}
}
