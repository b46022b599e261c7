package triple

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is an in-memory knowledge graph: the entity repository that
// construction fuses into and the storage engines derive their views from.
// It is safe for concurrent use.
//
// The store is one lock over one set of maps, and copy-on-write:
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
//   - Snapshot is O(1), not O(|KG|): it marks the maps as shared and hands
//     the snapshot the same maps. The first write afterwards — on either
//     side — copies the whole map set (pointers only; records are immutable
//     and never copied), so snapshot cost is paid lazily, once per side. A
//     snapshot is a fully independent *Graph: frozen at the cut and writable.
//     Only view materialization and NERD refreshes take snapshots, so the
//     commit loop pays that copy at most once per refresh.
//
// Bulk reads (Range, Len, Stats, IDs, Triples) each observe one consistent
// cut; use Snapshot when several of them must agree.
type Graph struct {
	mu       sync.RWMutex
	entities map[EntityID]*Entity
	byType   map[string]map[EntityID]bool // type -> ids
	sources  map[string]int               // source -> triple-occurrence refcount
	facts    int                          // total triples stored
	shared   bool                         // maps are aliased by >=1 snapshot

	nextID atomic.Uint64

	// typeMu guards the cached sorted ID slices per type; entries are
	// invalidated by any write touching that type. Holding typeMu while
	// gathering from the maps (never the reverse order) keeps the cache
	// coherent with the graph state.
	typeMu    sync.Mutex
	typeCache map[string][]EntityID
}

// NewGraph constructs an empty graph.
func NewGraph() *Graph {
	return &Graph{
		entities:  make(map[EntityID]*Entity),
		byType:    make(map[string]map[EntityID]bool),
		sources:   make(map[string]int),
		typeCache: make(map[string][]EntityID),
	}
}

// ensureOwnedLocked makes the maps private before a mutation: when a
// snapshot aliases them, the maps (not the immutable records they point to)
// are copied once. Callers hold the write lock.
func (g *Graph) ensureOwnedLocked() {
	if !g.shared {
		return
	}
	entities := make(map[EntityID]*Entity, len(g.entities))
	for id, e := range g.entities {
		entities[id] = e
	}
	g.entities = entities
	byType := make(map[string]map[EntityID]bool, len(g.byType))
	for typ, set := range g.byType {
		cp := make(map[EntityID]bool, len(set))
		for id := range set {
			cp[id] = true
		}
		byType[typ] = cp
	}
	g.byType = byType
	sources := make(map[string]int, len(g.sources))
	for src, n := range g.sources {
		sources[src] = n
	}
	g.sources = sources
	g.shared = false
}

// addIndexLocked registers a freshly stored record in the type index and
// monitoring counters.
func (g *Graph) addIndexLocked(e *Entity) {
	for _, typ := range e.Types() {
		set := g.byType[typ]
		if set == nil {
			set = make(map[EntityID]bool)
			g.byType[typ] = set
		}
		set[e.ID] = true
	}
	g.facts += len(e.Triples)
	for _, t := range e.Triples {
		for _, src := range t.Sources {
			g.sources[src]++
		}
	}
}

// removeIndexLocked unregisters a record being replaced or deleted.
func (g *Graph) removeIndexLocked(e *Entity) {
	if e == nil {
		return
	}
	for _, typ := range e.Types() {
		if set := g.byType[typ]; set != nil {
			delete(set, e.ID)
			if len(set) == 0 {
				delete(g.byType, typ)
			}
		}
	}
	g.facts -= len(e.Triples)
	for _, t := range e.Triples {
		for _, src := range t.Sources {
			if g.sources[src] <= 1 {
				delete(g.sources, src)
			} else {
				g.sources[src]--
			}
		}
	}
}

// invalidateTypeCache drops the cached sorted ID slices for every type the
// old and new records carry. Called after the graph lock is released, so the
// lock order is always typeMu -> mu, never the reverse.
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
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entities)
}

// FactCount returns the total number of triples in the graph. The counter is
// maintained on write, so this is O(1).
func (g *Graph) FactCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.facts
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
	g.mu.RLock()
	for id := range g.entities {
		sid := string(id)
		if len(sid) <= len(prefix) || sid[:len(prefix)] != prefix {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(sid[len(prefix):], "%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	g.mu.RUnlock()
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
	g.mu.RLock()
	e := g.entities[id]
	g.mu.RUnlock()
	return e
}

// Has reports whether the entity exists.
func (g *Graph) Has(id EntityID) bool {
	g.mu.RLock()
	_, ok := g.entities[id]
	g.mu.RUnlock()
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
	g.mu.Lock()
	g.ensureOwnedLocked()
	old := g.entities[e.ID]
	g.removeIndexLocked(old)
	g.entities[e.ID] = e
	g.addIndexLocked(e)
	g.mu.Unlock()
	g.invalidateTypeCache(old, e)
}

// Delete removes an entity, reporting whether it existed.
func (g *Graph) Delete(id EntityID) bool {
	g.mu.Lock()
	old, ok := g.entities[id]
	if !ok {
		g.mu.Unlock()
		return false
	}
	g.ensureOwnedLocked()
	g.removeIndexLocked(old)
	delete(g.entities, id)
	g.mu.Unlock()
	g.invalidateTypeCache(old, nil)
	return true
}

// IDs returns all entity IDs in sorted order.
func (g *Graph) IDs() []EntityID {
	g.mu.RLock()
	out := make([]EntityID, 0, len(g.entities))
	for id := range g.entities {
		out = append(out, id)
	}
	g.mu.RUnlock()
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
	g.mu.RLock()
	out := make([]EntityID, 0, len(g.byType[typ]))
	for id := range g.byType[typ] {
		out = append(out, id)
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	g.typeCache[typ] = out
	return append([]EntityID(nil), out...)
}

// Types returns the distinct entity types present in the graph, sorted.
func (g *Graph) Types() []string {
	g.mu.RLock()
	out := make([]string, 0, len(g.byType))
	for t := range g.byType {
		out = append(out, t)
	}
	g.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Range calls fn for every entity until fn returns false. The callback
// receives the stored immutable record and must not mutate it (sharedmut in
// cmd/saga-vet enforces this; see docs/INVARIANTS.md#cow-shared-records);
// unlike the pre-COW implementation no lock is held while fn runs, so fn may
// freely call back into the graph. The iteration visits the entities present
// at the call; writes that land while fn runs are not observed.
func (g *Graph) Range(fn func(*Entity) bool) { g.RangeShared(fn) }

// RangeShared iterates the stored immutable entity records without cloning:
// the clone-free bulk read path for index builds, view materialization, and
// importance computation. Records may be retained beyond the callback (they
// are frozen) but MUST NOT be mutated — clone before changing anything. The
// sharedmut analyzer (cmd/saga-vet) machine-checks callers; see
// docs/INVARIANTS.md#cow-shared-records. fn runs without any graph lock held.
func (g *Graph) RangeShared(fn func(*Entity) bool) {
	g.mu.RLock()
	batch := make([]*Entity, 0, len(g.entities))
	for _, e := range g.entities {
		batch = append(batch, e)
	}
	g.mu.RUnlock()
	for _, e := range batch {
		if !fn(e) {
			return
		}
	}
}

// Update applies fn to a copy of the entity with the given ID (creating an
// empty payload when absent) and stores the result atomically under the
// graph's write lock. The stored record is never mutated in place — fn runs
// on a private clone whose pointer then replaces the old record, which is the
// discipline that keeps shared readers and COW snapshots consistent.
func (g *Graph) Update(id EntityID, fn func(*Entity)) {
	g.mu.Lock()
	g.ensureOwnedLocked()
	old, ok := g.entities[id]
	var e *Entity
	if !ok {
		e = NewEntity(id)
	} else {
		e = old.Clone()
	}
	fn(e)
	g.removeIndexLocked(old)
	g.entities[id] = e
	g.addIndexLocked(e)
	g.mu.Unlock()
	g.invalidateTypeCache(old, e)
}

// Snapshot returns a frozen, independent copy of the whole graph in O(1)
// time: the maps are marked shared and aliased into the snapshot, and the
// first subsequent write — on either the live graph or the snapshot — copies
// them. The flip happens under the write lock, so the snapshot is a
// consistent cut even while writers run concurrently. View materialization
// and NERD refreshes take one per run; the commit loop never stalls behind
// an O(|KG|) deep copy at the cut itself.
func (g *Graph) Snapshot() *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shared = true
	out := &Graph{
		entities:  g.entities,
		byType:    g.byType,
		sources:   g.sources,
		facts:     g.facts,
		shared:    true,
		typeCache: make(map[string][]EntityID),
	}
	out.nextID.Store(g.nextID.Load())
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
// write — O(1), never a rescan of the stored triples.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return Stats{
		Entities: len(g.entities),
		Facts:    g.facts,
		Types:    len(g.byType),
		Sources:  len(g.sources),
	}
}
