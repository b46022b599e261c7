// Package textindex implements the Graph Engine's full-text search store
// (§3.1): a BM25-ranked inverted index over entity text (names, aliases,
// descriptions) supporting the "full-text search with ranking" workload and
// the ranked entity index view of Figure 7. The index supports incremental
// Put/Delete so its owner can replay KG updates, and hands out copy-on-write
// snapshots that search at one point in time.
package textindex

import (
	"math"
	"sort"
	"strings"

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
// Snapshot freezes the maps with copy-on-write semantics: taking one is
// O(1), and the first write after a snapshot to a given map (the top-level
// maps once per snapshot, each term's posting list individually) pays the
// copy.
type Index struct {
	postings map[string]map[string]int // term -> docID -> term frequency
	docLen   map[string]int
	docTerms map[string][]string
	totalLen int

	// epoch counts snapshots; topEpoch / termEpoch record when the top-level
	// maps / each term's posting list were last copied. A writer clones any
	// map whose epoch lags the snapshot epoch before mutating it, so every
	// snapshot's maps are frozen the moment a writer would touch them.
	epoch     uint64
	topEpoch  uint64
	termEpoch map[string]uint64
}

// New constructs an empty index.
func New() *Index {
	return &Index{
		postings:  make(map[string]map[string]int),
		docLen:    make(map[string]int),
		docTerms:  make(map[string][]string),
		termEpoch: make(map[string]uint64),
	}
}

// Tokenize normalizes and splits text into index terms.
func Tokenize(text string) []string {
	return strings.Fields(strsim.Normalize(text))
}

// cow shallow-copies the top-level maps a snapshot holds the first time a
// writer runs after the snapshot, so its map headers stay frozen. Posting
// lists get their own per-term copy in cowTerm, and document lengths are
// replaced wholesale, never mutated. docTerms is never part of a snapshot,
// so it is not copied.
func (ix *Index) cow() {
	if ix.topEpoch == ix.epoch {
		return
	}
	ix.topEpoch = ix.epoch
	postings := make(map[string]map[string]int, len(ix.postings))
	for t, m := range ix.postings {
		postings[t] = m
	}
	ix.postings = postings
	docLen := make(map[string]int, len(ix.docLen))
	for d, l := range ix.docLen {
		docLen[d] = l
	}
	ix.docLen = docLen
}

// cowTerm returns term's posting list, cloned first if a snapshot still
// references it. Returns nil when the term is unindexed.
func (ix *Index) cowTerm(t string) map[string]int {
	m := ix.postings[t]
	if m == nil {
		return nil
	}
	if ix.termEpoch[t] < ix.epoch {
		clone := make(map[string]int, len(m))
		for d, f := range m {
			clone[d] = f
		}
		ix.postings[t] = clone
		ix.termEpoch[t] = ix.epoch
		return clone
	}
	return m
}

// Put indexes (replacing) document id with the given text.
func (ix *Index) Put(id, text string) {
	terms := Tokenize(text)
	freq := make(map[string]int, len(terms))
	for _, t := range terms {
		freq[t]++
	}
	ix.cow()
	ix.delete(id)
	termList := make([]string, 0, len(freq))
	for t, f := range freq {
		m := ix.cowTerm(t)
		if m == nil {
			m = make(map[string]int)
			ix.postings[t] = m
			ix.termEpoch[t] = ix.epoch
		}
		m[id] = f
		termList = append(termList, t)
	}
	ix.docTerms[id] = termList
	ix.docLen[id] = len(terms)
	ix.totalLen += len(terms)
}

// Delete removes a document, reporting whether it existed.
func (ix *Index) Delete(id string) bool {
	ix.cow()
	return ix.delete(id)
}

func (ix *Index) delete(doc string) bool {
	terms, ok := ix.docTerms[doc]
	if !ok {
		return false
	}
	for _, t := range terms {
		if m := ix.cowTerm(t); m != nil {
			delete(m, doc)
			if len(m) == 0 {
				delete(ix.postings, t)
				delete(ix.termEpoch, t)
			}
		}
	}
	ix.totalLen -= ix.docLen[doc]
	delete(ix.docTerms, doc)
	delete(ix.docLen, doc)
	return true
}

// Snapshot freezes the index into an immutable searcher that stays valid
// indefinitely: the index copies any map the snapshot references before the
// next write to it.
func (ix *Index) Snapshot() *Snapshot {
	ix.epoch++
	return &Snapshot{postings: ix.postings, docLen: ix.docLen, totalLen: ix.totalLen}
}

// Snapshot is an immutable point-in-time searcher: searches never observe
// later writes, and two searches of the same snapshot with the same boosts
// always return identical hits. Its maps are shared with the index and must
// not be mutated.
type Snapshot struct {
	postings map[string]map[string]int
	docLen   map[string]int
	totalLen int
}

// Search returns the top-k documents by boosted BM25 score at the snapshot's
// point in time: each document's BM25 score is multiplied by boost(id), the
// owner's static rank boost (entity importance). Ties break by ID for
// determinism.
func (s *Snapshot) Search(query string, k int, boost func(id string) float64) []Hit {
	terms := Tokenize(query)
	n := len(s.docLen)
	if len(terms) == 0 || k <= 0 || n == 0 {
		return nil
	}
	avgLen := float64(s.totalLen) / float64(n)
	scores := make(map[string]float64)
	for _, t := range terms {
		m := s.postings[t]
		if len(m) == 0 {
			continue
		}
		idf := math.Log(1 + (float64(n)-float64(len(m))+0.5)/(float64(len(m))+0.5))
		for id, tf := range m {
			dl := float64(s.docLen[id])
			num := float64(tf) * (k1 + 1)
			den := float64(tf) + k1*(1-b+b*dl/avgLen)
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
