// Package textindex implements the Graph Engine's full-text search store
// (§3.1): a BM25-ranked inverted index over entity text (names, aliases,
// descriptions) supporting the "full-text search with ranking" workload and
// the ranked entity index view of Figure 7. The index supports incremental
// Put/Delete so orchestration agents can replay KG updates, and hands out
// copy-on-write snapshots that search lock-free at one point in time.
package textindex

import (
	"math"
	"sort"
	"strings"
	"sync"

	"saga/internal/strsim"
)

// Doc is one indexed document: an entity's searchable text plus a static
// rank boost (entity importance).
type Doc struct {
	// ID identifies the document (the entity ID).
	ID string
	// Text is the searchable content.
	Text string
	// Boost multiplies the BM25 score at query time; 0 means 1. Entity
	// importance feeds in here to favour important entities on ties.
	Boost float64
}

// Hit is one search result.
type Hit struct {
	ID    string
	Score float64
}

// Index is a BM25 index over term→doc→frequency posting maps plus
// per-document lengths, term lists (for deletion) and boosts, all under one
// RWMutex, safe for concurrent use. The zero value is not usable; call New.
//
// Snapshot freezes the maps with copy-on-write semantics: taking one is
// O(1), and the first write after a snapshot to a given map (the top-level
// maps once per snapshot, each term's posting list individually) pays the
// copy.
type Index struct {
	// K1 and B are the BM25 parameters; zero values default to 1.2 / 0.75.
	K1, B float64

	mu       sync.RWMutex
	postings map[string]map[string]int // term -> docID -> term frequency
	docLen   map[string]int
	docTerms map[string][]string
	boost    map[string]float64
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
		boost:     make(map[string]float64),
		termEpoch: make(map[string]uint64),
	}
}

// Tokenize normalizes and splits text into index terms.
func Tokenize(text string) []string {
	return strings.Fields(strsim.Normalize(text))
}

// cowLocked shallow-copies the top-level maps a snapshot holds the first
// time a writer runs after the snapshot, so its map headers stay frozen.
// Values are shared: posting lists get their own per-term copy in
// cowTermLocked, and scalar values are replaced wholesale, never mutated.
// docTerms is never part of a snapshot, so it is not copied.
func (ix *Index) cowLocked() {
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
	boost := make(map[string]float64, len(ix.boost))
	for d, b := range ix.boost {
		boost[d] = b
	}
	ix.boost = boost
}

// cowTermLocked returns term's posting list, cloned first if a snapshot
// still references it. Returns nil when the term is unindexed.
func (ix *Index) cowTermLocked(t string) map[string]int {
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

// Put indexes (replacing) a document.
func (ix *Index) Put(d Doc) {
	terms := Tokenize(d.Text)
	freq := make(map[string]int, len(terms))
	for _, t := range terms {
		freq[t]++
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.cowLocked()
	ix.deleteLocked(d.ID)
	termList := make([]string, 0, len(freq))
	for t, f := range freq {
		m := ix.cowTermLocked(t)
		if m == nil {
			m = make(map[string]int)
			ix.postings[t] = m
			ix.termEpoch[t] = ix.epoch
		}
		m[d.ID] = f
		termList = append(termList, t)
	}
	ix.docTerms[d.ID] = termList
	ix.docLen[d.ID] = len(terms)
	ix.totalLen += len(terms)
	boost := d.Boost
	if boost == 0 {
		boost = 1
	}
	ix.boost[d.ID] = boost
}

// Delete removes a document, reporting whether it existed.
func (ix *Index) Delete(id string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.cowLocked()
	return ix.deleteLocked(id)
}

func (ix *Index) deleteLocked(doc string) bool {
	terms, ok := ix.docTerms[doc]
	if !ok {
		return false
	}
	for _, t := range terms {
		if m := ix.cowTermLocked(t); m != nil {
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
	delete(ix.boost, doc)
	return true
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docTerms)
}

// viewLocked returns a view of the current maps. The caller holds ix.mu; the
// view stays valid after the lock is released only if the epoch was bumped
// under the write lock, which is what Snapshot does.
func (ix *Index) viewLocked() Snapshot {
	return Snapshot{postings: ix.postings, docLen: ix.docLen, boost: ix.boost,
		totalLen: ix.totalLen, k1: ix.K1, b: ix.B}
}

// Search returns the top-k documents by boosted BM25 score for the query.
// Ties break by ID for determinism. Scoring runs under the read lock, so it
// observes one index state end to end.
func (ix *Index) Search(query string, k int) []Hit {
	terms := Tokenize(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	ix.mu.RLock()
	v := ix.viewLocked()
	hits := v.score(terms)
	ix.mu.RUnlock()
	return topK(hits, k)
}

// Snapshot freezes the index into an immutable searcher. It is lock-free and
// stays valid indefinitely: the index copies any map the snapshot references
// before the next write to it.
func (ix *Index) Snapshot() *Snapshot {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.epoch++
	sn := ix.viewLocked()
	return &sn
}

// Snapshot is an immutable point-in-time searcher: searches never observe
// later writes, and two searches of the same snapshot always return
// identical hits. Its maps are shared with the index and must not be
// mutated.
type Snapshot struct {
	postings map[string]map[string]int
	docLen   map[string]int
	boost    map[string]float64
	totalLen int
	k1, b    float64
}

// Search returns the top-k documents by boosted BM25 score at the
// snapshot's point in time.
func (s *Snapshot) Search(query string, k int) []Hit {
	terms := Tokenize(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	return topK(s.score(terms), k)
}

// score runs boosted BM25 over the view's maps.
func (s *Snapshot) score(terms []string) []Hit {
	n := len(s.docLen)
	if n == 0 {
		return nil
	}
	k1, b := s.k1, s.b
	if k1 == 0 {
		k1 = 1.2
	}
	if b == 0 {
		b = 0.75
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
		hits = append(hits, Hit{ID: id, Score: sc * s.boost[id]})
	}
	return hits
}

func topK(hits []Hit, k int) []Hit {
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
