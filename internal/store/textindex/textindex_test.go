package textindex

import (
	"fmt"
	"sync"
	"testing"
)

func TestSearchRanksRelevance(t *testing.T) {
	ix := New()
	ix.Put(Doc{ID: "e1", Text: "Adele Laurie Blue Adkins singer"})
	ix.Put(Doc{ID: "e2", Text: "Adele pop singer from London"})
	ix.Put(Doc{ID: "e3", Text: "Quentin Tarantino film director"})
	hits := ix.Search("adele singer", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	for _, h := range hits {
		if h.ID == "e3" {
			t.Fatal("irrelevant doc returned")
		}
	}
	if got := ix.Search("nonexistent term", 10); len(got) != 0 {
		t.Fatalf("hits for missing term = %v", got)
	}
}

func TestIDFWeighting(t *testing.T) {
	ix := New()
	// "the" appears everywhere, "zanzibar" once.
	for i := 0; i < 20; i++ {
		ix.Put(Doc{ID: fmt.Sprintf("d%d", i), Text: "the common filler document"})
	}
	ix.Put(Doc{ID: "rare", Text: "the zanzibar chronicle"})
	hits := ix.Search("the zanzibar", 3)
	if len(hits) == 0 || hits[0].ID != "rare" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestBoost(t *testing.T) {
	ix := New()
	ix.Put(Doc{ID: "tail", Text: "paris hotel", Boost: 1})
	ix.Put(Doc{ID: "head", Text: "paris hotel", Boost: 5})
	ix.Put(Doc{ID: "unset", Text: "paris hotel"})
	hits := ix.Search("paris", 3)
	if hits[0].ID != "head" {
		t.Fatalf("boost ignored: %v", hits)
	}
	// A zero boost defaults to 1: "unset" ties "tail" exactly.
	if hits[1].ID != "tail" || hits[2].ID != "unset" || hits[1].Score != hits[2].Score {
		t.Fatalf("zero boost did not default to 1: %v", hits)
	}
}

func TestDeleteAndReplace(t *testing.T) {
	ix := New()
	ix.Put(Doc{ID: "e1", Text: "original text"})
	ix.Put(Doc{ID: "e2", Text: "kept document here"})
	ix.Put(Doc{ID: "e1", Text: "replaced words now"})
	if got := ix.Search("original", 5); len(got) != 0 {
		t.Fatalf("stale postings: %v", got)
	}
	if got := ix.Search("replaced", 5); len(got) != 1 {
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
	if got := ix.Search("replaced", 5); len(got) != 0 {
		t.Fatalf("deleted doc returned: %v", got)
	}
	if ix.Len() != 1 || ix.totalLen != 3 {
		t.Fatalf("len = %d, total length = %d after delete", ix.Len(), ix.totalLen)
	}
}

func TestTopKAndTies(t *testing.T) {
	ix := New()
	for i := 0; i < 10; i++ {
		ix.Put(Doc{ID: fmt.Sprintf("d%d", i), Text: "same exact text"})
	}
	hits := ix.Search("same text", 3)
	if len(hits) != 3 {
		t.Fatalf("k not applied: %d", len(hits))
	}
	if hits[0].ID != "d0" || hits[1].ID != "d1" {
		t.Fatalf("ties not deterministic: %v", hits)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ix.Put(Doc{ID: fmt.Sprintf("w%d-%d", w, i), Text: fmt.Sprintf("doc number %d writer %d", i, w)})
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ix.Search("doc number", 5)
			}
		}()
	}
	wg.Wait()
	if ix.Len() != 200 {
		t.Fatalf("len = %d", ix.Len())
	}
}
