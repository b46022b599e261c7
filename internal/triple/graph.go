package triple

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// defaultShards is the shard count of NewGraph. Entity IDs hash uniformly, so
// construction writes and serving reads of distinct entities almost never
// contend on the same lock.
const defaultShards = 32

// Graph is an in-memory knowledge graph: the entity repository that
// construction fuses into and the storage engines derive their views from.
// It is safe for concurrent use.
//
// The store is shard-striped and copy-on-write:
//
//   - Entities hash into shards, each with its own lock and map, so writers
//     and readers of different entities proceed in parallel instead of
//     serializing on one graph-wide mutex.
//
//   - Entity records are immutable after insert. Every write path (Put,
//     Update, the fusion helpers built on them) stores a private clone and
//     replaces the stored pointer; nothing ever mutates a record in place.
//     That is what makes the clone-free read paths (GetShared, RangeShared,
//     Range) safe: a returned *Entity is a frozen value that remains valid —
//     and unchanged — no matter how the graph advances. Callers of the shared
//     read paths MUST NOT mutate the entities they receive; callers that need
//     a mutable copy use Get, which clones.
//
//   - Snapshot is O(shards), not O(|KG|): it marks every shard map as shared
//     and hands the snapshot the same maps. The next write to a shard — on
//     either side — first copies that shard's maps (pointers only; records
//     are immutable and never copied), so snapshot cost is paid lazily and
//     only for the shards actually touched afterwards. A snapshot is a fully
//     independent *Graph: frozen at the cut, writable, and cheap to take per
//     view/NERD refresh even while construction commits concurrently.
//
// Multi-shard reads (Range, Len, Stats, IDs, Triples) visit shards one at a
// time and therefore observe a per-shard-atomic view; use Snapshot when a
// computation needs one globally consistent cut — it is cheap now.
type Graph struct {
	shards []*graphShard
	nextID atomic.Uint64

	// typeMu guards the cached sorted ID slices per type; entries are
	// invalidated by any write touching that type. Holding typeMu while
	// gathering from the shards (never the reverse order) keeps the cache
	// coherent with the shard state.
	typeMu    sync.Mutex
	typeCache map[string][]EntityID
}

// graphShard is one stripe of the store. entities, byType, and sources are
// the copy-on-write unit: when shared with a snapshot, the first write copies
// all three before mutating.
type graphShard struct {
	mu       sync.RWMutex
	entities map[EntityID]*Entity
	byType   map[string]map[EntityID]bool // type -> ids of this shard
	sources  map[string]int               // source -> triple-occurrence refcount
	facts    int                          // total triples stored in this shard
	shared   bool                         // maps are aliased by >=1 snapshot
}

// NewGraph constructs an empty graph with the default shard count.
func NewGraph() *Graph { return NewGraphWithShards(defaultShards) }

// NewGraphWithShards constructs an empty graph striped over n shards
// (minimum 1). The graphstore ablation uses it to compare shard counts; all
// shard counts store identical content.
func NewGraphWithShards(n int) *Graph {
	if n < 1 {
		n = 1
	}
	g := &Graph{shards: make([]*graphShard, n), typeCache: make(map[string][]EntityID)}
	for i := range g.shards {
		g.shards[i] = &graphShard{
			entities: make(map[EntityID]*Entity),
			byType:   make(map[string]map[EntityID]bool),
			sources:  make(map[string]int),
		}
	}
	return g
}

// HashID returns the FNV-1a hash of an entity ID: the shard function shared
// by every striped store keyed on entity IDs (this graph, the live store).
func HashID(id EntityID) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var h uint64 = offset64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// shardFor hashes an entity ID onto its shard.
func (g *Graph) shardFor(id EntityID) *graphShard {
	return g.shards[HashID(id)%uint64(len(g.shards))]
}

// ensureOwnedLocked makes the shard's maps private before a mutation: when a
// snapshot aliases them, the maps (not the immutable records they point to)
// are copied once. Callers hold the shard's write lock.
func (s *graphShard) ensureOwnedLocked() {
	if !s.shared {
		return
	}
	entities := make(map[EntityID]*Entity, len(s.entities))
	for id, e := range s.entities {
		entities[id] = e
	}
	s.entities = entities
	byType := make(map[string]map[EntityID]bool, len(s.byType))
	for typ, set := range s.byType {
		cp := make(map[EntityID]bool, len(set))
		for id := range set {
			cp[id] = true
		}
		byType[typ] = cp
	}
	s.byType = byType
	sources := make(map[string]int, len(s.sources))
	for src, n := range s.sources {
		sources[src] = n
	}
	s.sources = sources
	s.shared = false
}

// addIndexLocked registers a freshly stored record in the shard's type index
// and monitoring counters.
func (s *graphShard) addIndexLocked(e *Entity) {
	for _, typ := range e.Types() {
		set := s.byType[typ]
		if set == nil {
			set = make(map[EntityID]bool)
			s.byType[typ] = set
		}
		set[e.ID] = true
	}
	s.facts += len(e.Triples)
	for _, t := range e.Triples {
		for _, src := range t.Sources {
			s.sources[src]++
		}
	}
}

// removeIndexLocked unregisters a record being replaced or deleted.
func (s *graphShard) removeIndexLocked(e *Entity) {
	if e == nil {
		return
	}
	for _, typ := range e.Types() {
		if set := s.byType[typ]; set != nil {
			delete(set, e.ID)
			if len(set) == 0 {
				delete(s.byType, typ)
			}
		}
	}
	s.facts -= len(e.Triples)
	for _, t := range e.Triples {
		for _, src := range t.Sources {
			if s.sources[src] <= 1 {
				delete(s.sources, src)
			} else {
				s.sources[src]--
			}
		}
	}
}

// invalidateTypeCache drops the cached sorted ID slices for every type the
// old and new records carry. Called after the shard lock is released, so the
// lock order is always typeMu -> shard, never the reverse.
func (g *Graph) invalidateTypeCache(old, new *Entity) {
	g.typeMu.Lock()
	if len(g.typeCache) > 0 {
		if old != nil {
			for _, typ := range old.Types() {
				delete(g.typeCache, typ)
			}
		}
		if new != nil {
			for _, typ := range new.Types() {
				delete(g.typeCache, typ)
			}
		}
	}
	g.typeMu.Unlock()
}

// Len returns the number of entities in the graph.
func (g *Graph) Len() int {
	n := 0
	for _, s := range g.shards {
		s.mu.RLock()
		n += len(s.entities)
		s.mu.RUnlock()
	}
	return n
}

// FactCount returns the total number of triples in the graph. Counters are
// maintained on write, so this is O(shards).
func (g *Graph) FactCount() int {
	n := 0
	for _, s := range g.shards {
		s.mu.RLock()
		n += s.facts
		s.mu.RUnlock()
	}
	return n
}

// NewID mints a fresh canonical KG entity ID.
func (g *Graph) NewID() EntityID {
	return EntityID(fmt.Sprintf("%sE%08d", KGNamespace, g.nextID.Add(1)))
}

// SeedIDs advances the ID-mint counter past every canonical KG entity ID
// already present in the graph. Recovery calls it after restoring entities
// from a checkpoint or log replay: the counter is in-memory only, so without
// re-seeding a reopened platform would mint IDs that collide with restored
// entities. Scanning the stored IDs is deterministic, which keeps the two
// recovery paths (checkpoint+suffix vs full replay) byte-identical.
func (g *Graph) SeedIDs() {
	var maxSeq uint64
	prefix := KGNamespace + "E"
	for _, s := range g.shards {
		s.mu.RLock()
		for id := range s.entities {
			sid := string(id)
			if len(sid) <= len(prefix) || sid[:len(prefix)] != prefix {
				continue
			}
			var n uint64
			if _, err := fmt.Sscanf(sid[len(prefix):], "%d", &n); err == nil && n > maxSeq {
				maxSeq = n
			}
		}
		s.mu.RUnlock()
	}
	for {
		cur := g.nextID.Load()
		if cur >= maxSeq || g.nextID.CompareAndSwap(cur, maxSeq) {
			return
		}
	}
}

// Get returns a deep copy of the entity with the given ID, or nil when the
// graph has no such entity. Callers may freely mutate the copy; internal hot
// paths that only read use GetShared and skip the clone.
func (g *Graph) Get(id EntityID) *Entity {
	e := g.GetShared(id)
	if e == nil {
		return nil
	}
	return e.Clone()
}

// GetShared returns the stored, immutable entity record, or nil. The record
// is frozen: it never changes after insert (writes replace the pointer), so
// callers may read and retain it without holding any lock — but MUST NOT
// mutate it, not even a map entry or a slice element deep inside; mutate a
// Clone instead. This is the clone-free read path linking candidate loads,
// cache refreshes, view building, and publishing use. The sharedmut analyzer
// (cmd/saga-vet) machine-checks the contract; intentional ownership
// transfers carry a //saga:owns marker. See
// docs/INVARIANTS.md#cow-shared-records.
func (g *Graph) GetShared(id EntityID) *Entity {
	s := g.shardFor(id)
	s.mu.RLock()
	e := s.entities[id]
	s.mu.RUnlock()
	return e
}

// Has reports whether the entity exists.
func (g *Graph) Has(id EntityID) bool {
	s := g.shardFor(id)
	s.mu.RLock()
	_, ok := s.entities[id]
	s.mu.RUnlock()
	return ok
}

// Put stores (replacing) an entity payload. The payload is cloned; the caller
// keeps ownership of its argument.
func (g *Graph) Put(e *Entity) { g.PutOwned(e.Clone()) }

// PutOwned stores (replacing) an entity record without cloning it: the graph
// takes ownership, and from this call on the record is frozen like every
// stored record — the caller may keep reading it (and may hand the same
// pointer to other read-only holders, as log replay does with its agents)
// but nobody may mutate it again. For records the caller has just built and
// shared with no writer: the payloads log replay and checkpoint restore
// decode. Everyone else uses Put.
//
//saga:owns ownership of a freshly decoded, never-published record moves to the graph (docs/INVARIANTS.md#cow-shared-records)
func (g *Graph) PutOwned(e *Entity) {
	s := g.shardFor(e.ID)
	s.mu.Lock()
	s.ensureOwnedLocked()
	old := s.entities[e.ID]
	s.removeIndexLocked(old)
	s.entities[e.ID] = e
	s.addIndexLocked(e)
	s.mu.Unlock()
	g.invalidateTypeCache(old, e)
}

// Delete removes an entity, reporting whether it existed.
func (g *Graph) Delete(id EntityID) bool {
	s := g.shardFor(id)
	s.mu.Lock()
	old, ok := s.entities[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	s.ensureOwnedLocked()
	s.removeIndexLocked(old)
	delete(s.entities, id)
	s.mu.Unlock()
	g.invalidateTypeCache(old, nil)
	return true
}

// IDs returns all entity IDs in sorted order.
func (g *Graph) IDs() []EntityID {
	var out []EntityID
	for _, s := range g.shards {
		s.mu.RLock()
		for id := range s.entities {
			out = append(out, id)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IDsByType returns the IDs of entities carrying the given ontology type, in
// sorted order. Linking extracts its per-type KG views through this index.
// The sorted slice is cached per type and invalidated on any write touching
// the type, so repeated probes (prepareDelta runs one per delta) skip the
// re-sort.
func (g *Graph) IDsByType(typ string) []EntityID {
	g.typeMu.Lock()
	defer g.typeMu.Unlock()
	if cached, ok := g.typeCache[typ]; ok {
		return append([]EntityID(nil), cached...)
	}
	var out []EntityID
	for _, s := range g.shards {
		s.mu.RLock()
		for id := range s.byType[typ] {
			out = append(out, id)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	g.typeCache[typ] = out
	return append([]EntityID(nil), out...)
}

// Types returns the distinct entity types present in the graph, sorted.
func (g *Graph) Types() []string {
	seen := make(map[string]bool)
	for _, s := range g.shards {
		s.mu.RLock()
		for t := range s.byType {
			seen[t] = true
		}
		s.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Range calls fn for every entity until fn returns false. The callback
// receives the stored immutable record and must not mutate it (sharedmut in
// cmd/saga-vet enforces this; see docs/INVARIANTS.md#cow-shared-records);
// unlike the pre-COW implementation no lock is held while fn runs, so fn may
// freely call back into the graph. The view is per-shard-atomic; take a
// Snapshot first for a globally consistent iteration.
func (g *Graph) Range(fn func(*Entity) bool) { g.RangeShared(fn) }

// RangeShared iterates the stored immutable entity records without cloning:
// the clone-free bulk read path for index builds, view materialization, and
// importance computation. Records may be retained beyond the callback (they
// are frozen) but MUST NOT be mutated — clone before changing anything. The
// sharedmut analyzer (cmd/saga-vet) machine-checks callers; see
// docs/INVARIANTS.md#cow-shared-records. fn runs without any graph lock held.
func (g *Graph) RangeShared(fn func(*Entity) bool) {
	for _, s := range g.shards {
		s.mu.RLock()
		batch := make([]*Entity, 0, len(s.entities))
		for _, e := range s.entities {
			batch = append(batch, e)
		}
		s.mu.RUnlock()
		for _, e := range batch {
			if !fn(e) {
				return
			}
		}
	}
}

// Update applies fn to a copy of the entity with the given ID (creating an
// empty payload when absent) and stores the result atomically under the
// shard's write lock. The stored record is never mutated in place — fn runs
// on a private clone whose pointer then replaces the old record, which is the
// discipline that keeps shared readers and COW snapshots consistent.
func (g *Graph) Update(id EntityID, fn func(*Entity)) {
	s := g.shardFor(id)
	s.mu.Lock()
	s.ensureOwnedLocked()
	old, ok := s.entities[id]
	var e *Entity
	if !ok {
		e = NewEntity(id)
	} else {
		e = old.Clone()
	}
	fn(e)
	s.removeIndexLocked(old)
	s.entities[id] = e
	s.addIndexLocked(e)
	s.mu.Unlock()
	g.invalidateTypeCache(old, e)
}

// Snapshot returns a frozen, independent copy of the whole graph in O(shards)
// time: every shard's maps are marked shared and aliased into the snapshot,
// and the first subsequent write to a shard — on either the live graph or the
// snapshot — copies just that shard's maps. All shard locks are held together
// for the flip, so the snapshot is a globally consistent cut even while
// writers run concurrently. View materialization and NERD refreshes take one
// per run; the commit loop no longer stalls behind an O(|KG|) deep copy.
func (g *Graph) Snapshot() *Graph {
	out := &Graph{
		shards:    make([]*graphShard, len(g.shards)),
		typeCache: make(map[string][]EntityID),
	}
	for _, s := range g.shards {
		s.mu.Lock()
	}
	out.nextID.Store(g.nextID.Load())
	for i, s := range g.shards {
		s.shared = true
		out.shards[i] = &graphShard{
			entities: s.entities,
			byType:   s.byType,
			sources:  s.sources,
			facts:    s.facts,
			shared:   true,
		}
	}
	for _, s := range g.shards {
		s.mu.Unlock()
	}
	return out
}

// Triples returns every triple in the graph in deterministic order. Intended
// for tests and small exports; large consumers should use RangeShared.
func (g *Graph) Triples() []Triple {
	var out []Triple
	g.RangeShared(func(e *Entity) bool {
		out = append(out, e.Triples...)
		return true
	})
	SortTriples(out)
	return out
}

// Stats summarizes the graph for monitoring and the growth experiment.
type Stats struct {
	Entities int
	Facts    int
	Types    int
	Sources  int
}

// Stats reports summary statistics from counters maintained incrementally on
// write — O(shards + types + sources), never a rescan of the stored triples.
func (g *Graph) Stats() Stats {
	types := make(map[string]bool)
	sources := make(map[string]bool)
	st := Stats{}
	for _, s := range g.shards {
		s.mu.RLock()
		st.Entities += len(s.entities)
		st.Facts += s.facts
		for t := range s.byType {
			types[t] = true
		}
		for src := range s.sources {
			sources[src] = true
		}
		s.mu.RUnlock()
	}
	st.Types = len(types)
	st.Sources = len(sources)
	return st
}
