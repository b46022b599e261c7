package triple

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"saga/internal/pmap"
)

// Graph is an in-memory knowledge graph: the entity repository that
// construction fuses into and the storage engines derive their views from.
// It is safe for concurrent use.
//
// The store is one lock over one set of maps, and copy-on-write:
//
//   - Entity records are immutable after insert. Every write path (Put,
//     Update, Edit, the fusion helpers built on them) stores a private clone and
//     replaces the stored pointer; nothing ever mutates a record in place.
//     That is what makes the clone-free read paths (GetShared, RangeShared,
//     Range) safe: a returned *Entity is a frozen value that remains valid —
//     and unchanged — no matter how the graph advances. Callers of the shared
//     read paths MUST NOT mutate the entities they receive; callers that need
//     a mutable copy use Get, which clones.
//
//   - The entity map and the type index are persistent ordered maps
//     (internal/pmap) whose tree nodes carry the owner of the write that made
//     them. Snapshot is O(1), not O(|KG|): the snapshot takes the maps'
//     headers and both sides switch to a fresh owner, so the first write on
//     either side copies only the nodes on its key's path (pointers only;
//     records are immutable and never copied). The source refcounts hold one
//     key per distinct source, so Snapshot clones them whole. A snapshot is a
//     fully independent *Graph: frozen at the cut and writable.
//
// Bulk reads (Range, Len, Stats, IDs, Triples) each observe one consistent
// cut; use Snapshot when several of them must agree.
type Graph struct {
	mu       sync.RWMutex
	owner    *pmap.Owner // writes copy every tree node another owner made
	entities pmap.Map[EntityID, *Entity]
	byType   pmap.Map[string, pmap.Map[EntityID, struct{}]] // type -> ids
	sources  map[string]int                                 // source -> triple-occurrence refcount
	facts    int                                            // total triples stored

	nextID atomic.Uint64
}

// NewGraph constructs an empty graph.
func NewGraph() *Graph {
	return &Graph{owner: new(pmap.Owner), sources: make(map[string]int)}
}

// replaceLocked stores e under id in place of old, either of them nil for
// none, and moves the type index and the monitoring counters along. A type
// both records carry stays where it is: replayed and fused writes rarely
// retype an entity. Callers hold the write lock.
func (g *Graph) replaceLocked(id EntityID, old, e *Entity) {
	was, is := g.count(old, -1), g.count(e, 1)
	if e != nil {
		g.entities.Set(g.owner, id, e)
	} else {
		g.entities.Delete(g.owner, id)
	}
	for _, typ := range was {
		if !slices.Contains(is, typ) {
			pmap.DeleteIn(g.owner, &g.byType, typ, id)
		}
	}
	for _, typ := range is {
		if !slices.Contains(was, typ) {
			pmap.SetIn(g.owner, &g.byType, typ, id, struct{}{})
		}
	}
}

// count adds sign times e's triples and their sources to the monitoring
// counters and returns e's types; a nil e counts nothing.
func (g *Graph) count(e *Entity, sign int) []string {
	if e == nil {
		return nil
	}
	g.facts += sign * len(e.Triples)
	for _, t := range e.Triples {
		for _, src := range t.Sources {
			if g.sources[src] += sign; g.sources[src] == 0 {
				delete(g.sources, src)
			}
		}
	}
	return e.Types()
}

// Len returns the number of entities in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.entities.Len()
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
	for id := range g.entities.All() {
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
	e, _ := g.entities.Get(id)
	g.mu.RUnlock()
	return e
}

// Has reports whether the entity exists.
func (g *Graph) Has(id EntityID) bool {
	g.mu.RLock()
	_, ok := g.entities.Get(id)
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
// but nobody may mutate it again. For records no writer holds: the payloads
// log replay hands over (the publisher's frozen KG records, or records it
// decoded) and checkpoint restore decodes. Everyone else uses Put.
//
//saga:owns a replayed record is frozen and no writer holds it, so the graph takes it as it is (docs/INVARIANTS.md#cow-shared-records)
func (g *Graph) PutOwned(e *Entity) {
	g.mu.Lock()
	old, _ := g.entities.Get(e.ID)
	g.replaceLocked(e.ID, old, e)
	g.mu.Unlock()
}

// Delete removes an entity, reporting whether it existed.
func (g *Graph) Delete(id EntityID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	old, ok := g.entities.Get(id)
	g.replaceLocked(id, old, nil)
	return ok
}

// IDs returns all entity IDs in sorted order.
func (g *Graph) IDs() []EntityID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.entities.Keys()
}

// IDsByType returns the IDs of entities carrying the given ontology type, in
// sorted order. Linking extracts its per-type KG views through this index.
func (g *Graph) IDsByType(typ string) []EntityID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set, _ := g.byType.Get(typ)
	return set.Keys()
}

// Types returns the distinct entity types present in the graph, sorted.
func (g *Graph) Types() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.byType.Keys()
}

// Range calls fn for every entity until fn returns false. The callback
// receives the stored immutable record and must not mutate it (sharedmut in
// cmd/saga-vet enforces this; see docs/INVARIANTS.md#cow-shared-records);
// unlike the pre-COW implementation no lock is held while fn runs, so fn may
// freely call back into the graph. The iteration visits the entities present
// at the call, in ID order; writes that land while fn runs are not observed.
func (g *Graph) Range(fn func(*Entity) bool) { g.RangeShared(fn) }

// RangeShared iterates the stored immutable entity records without cloning:
// the clone-free bulk read path for index builds, view materialization, and
// importance computation. Records may be retained beyond the callback (they
// are frozen) but MUST NOT be mutated — clone before changing anything. The
// sharedmut analyzer (cmd/saga-vet) machine-checks callers; see
// docs/INVARIANTS.md#cow-shared-records. fn runs without any graph lock held.
func (g *Graph) RangeShared(fn func(*Entity) bool) {
	g.mu.Lock()
	entities := g.entities
	g.owner = new(pmap.Owner) // freezes entities while fn runs unlocked
	g.mu.Unlock()
	entities.All()(func(_ EntityID, e *Entity) bool { return fn(e) })
}

// Update applies fn to a copy of the entity with the given ID (creating an
// empty payload when absent) and stores the result atomically under the
// graph's write lock. The stored record is never mutated in place — fn runs
// on a private clone whose pointer then replaces the old record, which is the
// discipline that keeps shared readers and COW snapshots consistent.
func (g *Graph) Update(id EntityID, fn func(*Entity)) {
	g.Edit(id, 0, func(e *Entity) bool { fn(e); return true })
}

// Edit is Update for a writer that knows how much it appends and may delete:
// the copy fn receives has room for extra more triples, so an edit appending
// at most that many copies the record once, and fn's result decides the
// outcome — true stores the edited copy, false deletes the entity (nothing,
// when it is absent).
func (g *Graph) Edit(id EntityID, extra int, fn func(*Entity) bool) {
	g.mu.Lock()
	old, _ := g.entities.Get(id)
	e := NewEntity(id)
	if old != nil {
		e = old.cloneCap(extra)
	} else if extra > 0 {
		e.Triples = make([]Triple, 0, extra)
	}
	if !fn(e) {
		e = nil
	}
	g.replaceLocked(id, old, e)
	g.mu.Unlock()
}

// Snapshot returns a frozen, independent copy of the whole graph in O(1)
// time: it takes the trees' headers, and both sides write under fresh owners
// from then on, so the first write on either side copies only its path. The
// capture happens under the write lock, so the snapshot is a consistent cut
// even while writers run concurrently.
func (g *Graph) Snapshot() *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.owner = new(pmap.Owner)
	out := &Graph{
		owner:    new(pmap.Owner),
		entities: g.entities,
		byType:   g.byType,
		sources:  maps.Clone(g.sources),
		facts:    g.facts,
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
		Entities: g.entities.Len(),
		Facts:    g.facts,
		Types:    g.byType.Len(),
		Sources:  len(g.sources),
	}
}
