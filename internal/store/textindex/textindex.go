// Package textindex implements the Graph Engine's full-text search store
// (§3.1): a BM25-ranked inverted index over entity text (names, aliases,
// descriptions) supporting the "full-text search with ranking" workload and
// the ranked entity index view of Figure 7. The index supports incremental
// Put/Delete so its owner can replay KG updates, and hands out copy-on-write
// snapshots that search at one point in time.
package textindex

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"saga/internal/pmap"
	"saga/internal/strsim"
)

// BM25 parameters.
const (
	k1 = 1.2
	b  = 0.75
)

// Hit is one search result.
type Hit struct {
	ID    string
	Score float64
}

// Index is a BM25 index over term→doc→frequency posting maps plus
// per-document lengths and term lists (for deletion). It has a single owner:
// the caller serializes Put, Delete and Snapshot. Snapshots are immutable and
// safe to search from any goroutine. The zero value is not usable; call New.
//
// The postings and document lengths are persistent ordered maps
// (internal/pmap): a snapshot is a copy of the corpus, O(1), and the first
// write after it copies only the tree nodes on the paths it writes.
type Index struct {
	owner *pmap.Owner // replaced at every Snapshot
	corpus
	docTerms map[string][]string
}

// corpus is what a search reads.
type corpus struct {
	postings pmap.Map[string, pmap.Map[string, int]] // term -> docID -> term frequency
	docLen   pmap.Map[string, int]
	totalLen int
}

// New constructs an empty index.
func New() *Index {
	return &Index{owner: new(pmap.Owner), docTerms: make(map[string][]string)}
}

// Tokenize normalizes and splits text into index terms.
func Tokenize(text string) []string {
	return strings.Fields(strsim.Normalize(text))
}

// Put indexes (replacing) document id with the given text.
func (ix *Index) Put(id, text string) {
	terms := Tokenize(text)
	freq := make(map[string]int, len(terms))
	for _, t := range terms {
		freq[t]++
	}
	ix.Delete(id)
	for t, f := range freq {
		pmap.SetIn(ix.owner, &ix.postings, t, id, f)
	}
	ix.docTerms[id] = slices.Collect(maps.Keys(freq))
	ix.docLen.Set(ix.owner, id, len(terms))
	ix.totalLen += len(terms)
}

// Delete removes a document, reporting whether it existed.
func (ix *Index) Delete(id string) bool {
	terms, ok := ix.docTerms[id]
	if !ok {
		return false
	}
	for _, t := range terms {
		pmap.DeleteIn(ix.owner, &ix.postings, t, id)
	}
	n, _ := ix.docLen.Delete(ix.owner, id)
	ix.totalLen -= n
	delete(ix.docTerms, id)
	return true
}

// Snapshot freezes the index into an immutable searcher that stays valid
// indefinitely: the index writes under a fresh owner from then on, so it
// copies any tree node the snapshot references before changing it.
func (ix *Index) Snapshot() *Snapshot {
	ix.owner = new(pmap.Owner)
	return &Snapshot{ix.corpus}
}

// Snapshot is an immutable point-in-time searcher: searches never observe
// later writes, and two searches of the same snapshot with the same boosts
// always return identical hits. Its maps are shared with the index and must
// not be mutated.
type Snapshot struct{ corpus }

// Search returns the top-k documents by boosted BM25 score at the snapshot's
// point in time: each document's BM25 score is multiplied by boost(id), the
// owner's static rank boost (entity importance). Ties break by ID for
// determinism.
func (s *Snapshot) Search(query string, k int, boost func(id string) float64) []Hit {
	terms := Tokenize(query)
	n := s.docLen.Len()
	if len(terms) == 0 || k <= 0 || n == 0 {
		return nil
	}
	avgLen := float64(s.totalLen) / float64(n)
	scores := make(map[string]float64)
	for _, t := range terms {
		m, _ := s.postings.Get(t)
		if m.Len() == 0 {
			continue
		}
		idf := math.Log(1 + (float64(n)-float64(m.Len())+0.5)/(float64(m.Len())+0.5))
		for id, tf := range m.All() {
			dl, _ := s.docLen.Get(id)
			num := float64(tf) * (k1 + 1)
			den := float64(tf) + k1*(1-b+b*float64(dl)/avgLen)
			scores[id] += idf * num / den
		}
	}
	hits := make([]Hit, 0, len(scores))
	for id, sc := range scores {
		hits = append(hits, Hit{ID: id, Score: sc * boost(id)})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
