package construct

import (
	"iter"
	"maps"
	"sort"
	"strings"
	"sync"

	"saga/internal/triple"
)

// KG is the construction-time state of the knowledge graph: the entity
// repository plus the link index recording which KG identifier each source
// entity resolved to. The link index is what lets Updated/Deleted payloads
// skip the full linking pipeline and do an ID lookup instead (§2.4).
type KG struct {
	// Graph is the entity repository.
	Graph *triple.Graph

	mu    sync.RWMutex
	links map[triple.EntityID]triple.EntityID // source entity ID -> KG ID
}

// NewKG constructs an empty knowledge graph.
func NewKG() *KG {
	return &KG{Graph: triple.NewGraph(), links: make(map[triple.EntityID]triple.EntityID)}
}

// Link records that the source entity resolved to the KG entity.
func (kg *KG) Link(src, kgID triple.EntityID) {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	kg.links[src] = kgID
}

// Lookup returns the KG identifier a source entity previously linked to.
func (kg *KG) Lookup(src triple.EntityID) (triple.EntityID, bool) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	id, ok := kg.links[src]
	return id, ok
}

// Unlink removes a source entity's link, reporting whether it existed.
func (kg *KG) Unlink(src triple.EntityID) bool {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	_, ok := kg.links[src]
	delete(kg.links, src)
	return ok
}

// LinksSnapshot returns a copy of the full link index. A checkpoint takes
// the link table from the platform's log-derived replica instead; the
// benchmark's platform layer reads this one.
func (kg *KG) LinksSnapshot() map[triple.EntityID]triple.EntityID {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return maps.Clone(kg.links)
}

// RestoreLinks replaces the link index wholesale with the pairs links
// yields. Only recovery may call it, before the pipeline starts consuming.
func (kg *KG) RestoreLinks(links iter.Seq2[triple.EntityID, triple.EntityID]) {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	kg.links = maps.Collect(links)
}

// LinkCount returns the number of recorded source links.
func (kg *KG) LinkCount() int {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return len(kg.links)
}

// LinksOf returns the source entities of the given source name that link to
// any KG entity, sorted. Source entity IDs are namespaced "source:local".
func (kg *KG) LinksOf(source string) []triple.EntityID {
	prefix := source + ":"
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	var out []triple.EntityID
	for src := range kg.links {
		if strings.HasPrefix(string(src), prefix) {
			out = append(out, src)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KGView extracts the current KG entities of one type: the reduced-scope
// target dataset linking runs against (§2.3 step 1). Entities are deep
// copies; callers may mutate them.
func (kg *KG) KGView(entityType string) []*triple.Entity {
	ids := kg.Graph.IDsByType(entityType)
	out := make([]*triple.Entity, 0, len(ids))
	for _, id := range ids {
		if e := kg.Graph.Get(id); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// KGViewShared is KGView without the per-entity deep copy: it returns the
// stored immutable records, which blocking, matching, and clustering only
// ever read. The pipeline's scan-path candidate gather uses it so full-scan
// linking stops paying a clone per KG entity per delta; callers must not
// mutate the returned entities — clone first, or mark a deliberate ownership
// transfer with //saga:owns. The sharedmut analyzer (cmd/saga-vet) enforces
// this; see docs/INVARIANTS.md#cow-shared-records.
func (kg *KG) KGViewShared(entityType string) []*triple.Entity {
	ids := kg.Graph.IDsByType(entityType)
	out := make([]*triple.Entity, 0, len(ids))
	for _, id := range ids {
		if e := kg.Graph.GetShared(id); e != nil {
			out = append(out, e)
		}
	}
	return out
}
