// Package vectordb implements the Graph Engine's vector database (§3.1,
// §5.3): storage for learned graph embeddings with nearest-neighbour search.
// Exact search ranks every vector by cosine similarity; approximate search
// uses random-hyperplane locality-sensitive hashing (LSH) with multiple
// tables. Attribute filters restrict search to a subset (the "people
// embeddings" view of Figure 7 is a type filter over the full index).
package vectordb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Hit is one nearest-neighbour result.
type Hit struct {
	ID    string
	Score float64 // cosine similarity
}

// DB is a vector store with optional LSH acceleration, safe for concurrent
// use: one RWMutex guards the vectors, their attributes and the LSH
// structure, so the three stay consistent across every mutation.
type DB struct {
	dim int

	mu    sync.RWMutex
	vecs  map[string][]float64
	attrs map[string]map[string]string
	lsh   *lshIndex
}

// Options configures the store.
type Options struct {
	// Dim is the required vector dimensionality.
	Dim int
	// LSHTables enables ANN search with that many hash tables (0 disables).
	LSHTables int
	// LSHBits is the number of hyperplanes (signature bits) per table;
	// default 12.
	LSHBits int
	// Seed drives hyperplane sampling.
	Seed int64
}

// New constructs an empty vector DB.
func New(opts Options) (*DB, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("vectordb: dimension must be positive")
	}
	db := &DB{
		dim:   opts.Dim,
		vecs:  make(map[string][]float64),
		attrs: make(map[string]map[string]string),
	}
	if opts.LSHTables > 0 {
		bits := opts.LSHBits
		if bits == 0 {
			bits = 12
		}
		db.lsh = newLSH(opts.Dim, opts.LSHTables, bits, opts.Seed)
	}
	return db, nil
}

// Put stores (replacing) a copy of a vector with optional attributes.
func (db *DB) Put(id string, vec []float64, attrs map[string]string) error {
	if len(vec) != db.dim {
		return fmt.Errorf("vectordb: vector %s has dim %d, want %d", id, len(vec), db.dim)
	}
	v := append([]float64(nil), vec...)
	var a map[string]string
	if attrs != nil {
		a = make(map[string]string, len(attrs))
		for k, val := range attrs {
			a[k] = val
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	prev := db.vecs[id]
	db.vecs[id] = v
	if a != nil {
		db.attrs[id] = a
	} else {
		delete(db.attrs, id)
	}
	if db.lsh != nil {
		if prev != nil {
			db.lsh.remove(id, prev)
		}
		db.lsh.insert(id, v)
	}
	return nil
}

// Delete removes a vector, reporting whether it existed.
func (db *DB) Delete(id string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	v, ok := db.vecs[id]
	if !ok {
		return false
	}
	delete(db.vecs, id)
	delete(db.attrs, id)
	if db.lsh != nil {
		db.lsh.remove(id, v)
	}
	return true
}

// Get returns a copy of the stored vector, or nil.
func (db *DB) Get(id string) []float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.vecs[id]
	if !ok {
		return nil
	}
	return append([]float64(nil), v...)
}

// Len returns the number of stored vectors.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.vecs)
}

// Filter restricts a search to vectors whose attributes satisfy the
// predicate. A nil Filter admits everything.
type Filter func(attrs map[string]string) bool

// AttrEquals builds a filter matching one attribute value, such as
// entity type = "human" for the people-embeddings view.
func AttrEquals(key, value string) Filter {
	return func(attrs map[string]string) bool { return attrs[key] == value }
}

// Search returns the top-k vectors by cosine similarity to the query,
// scanning exactly.
func (db *DB) Search(query []float64, k int, filter Filter) ([]Hit, error) {
	if len(query) != db.dim {
		return nil, fmt.Errorf("vectordb: query dim %d, want %d", len(query), db.dim)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	hits := make([]Hit, 0, 64)
	for id, vec := range db.vecs {
		if filter != nil && !filter(db.attrs[id]) {
			continue
		}
		hits = append(hits, Hit{ID: id, Score: Cosine(query, vec)})
	}
	return topK(hits, k), nil
}

// SearchANN returns approximate nearest neighbours using the LSH tables:
// candidates sharing a bucket with the query in any table are ranked by exact
// cosine. Recall trades against speed with the table/bit configuration.
func (db *DB) SearchANN(query []float64, k int, filter Filter) ([]Hit, error) {
	if db.lsh == nil {
		return db.Search(query, k, filter)
	}
	if len(query) != db.dim {
		return nil, fmt.Errorf("vectordb: query dim %d, want %d", len(query), db.dim)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := make(map[string]bool)
	hits := make([]Hit, 0, 64)
	for _, id := range db.lsh.candidates(query) {
		if seen[id] {
			continue
		}
		seen[id] = true
		vec := db.vecs[id]
		if vec == nil {
			continue
		}
		if filter != nil && !filter(db.attrs[id]) {
			continue
		}
		hits = append(hits, Hit{ID: id, Score: Cosine(query, vec)})
	}
	return topK(hits, k), nil
}

func topK(hits []Hit, k int) []Hit {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// Cosine returns the cosine similarity of two equal-length vectors (0 when
// either is a zero vector).
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// lshIndex is a random-hyperplane LSH structure: T tables of 2^bits buckets.
type lshIndex struct {
	planes  [][][]float64 // [table][bit][dim]
	buckets []map[uint64][]string
}

func newLSH(dim, tables, bits int, seed int64) *lshIndex {
	rng := rand.New(rand.NewSource(seed))
	ix := &lshIndex{
		planes:  make([][][]float64, tables),
		buckets: make([]map[uint64][]string, tables),
	}
	for t := 0; t < tables; t++ {
		ix.planes[t] = make([][]float64, bits)
		for b := 0; b < bits; b++ {
			p := make([]float64, dim)
			for d := range p {
				p[d] = rng.NormFloat64()
			}
			ix.planes[t][b] = p
		}
		ix.buckets[t] = make(map[uint64][]string)
	}
	return ix
}

func (ix *lshIndex) signature(table int, v []float64) uint64 {
	var sig uint64
	for b, plane := range ix.planes[table] {
		var dot float64
		for d := range plane {
			dot += plane[d] * v[d]
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

func (ix *lshIndex) insert(id string, v []float64) {
	for t := range ix.planes {
		sig := ix.signature(t, v)
		ix.buckets[t][sig] = append(ix.buckets[t][sig], id)
	}
}

func (ix *lshIndex) remove(id string, v []float64) {
	for t := range ix.planes {
		sig := ix.signature(t, v)
		bucket := ix.buckets[t][sig]
		for i, bid := range bucket {
			if bid == id {
				ix.buckets[t][sig] = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(ix.buckets[t][sig]) == 0 {
			delete(ix.buckets[t], sig)
		}
	}
}

func (ix *lshIndex) candidates(query []float64) []string {
	var out []string
	for t := range ix.planes {
		sig := ix.signature(t, query)
		out = append(out, ix.buckets[t][sig]...)
	}
	return out
}
