package construct

import (
	"sort"
	"sync"

	"saga/internal/triple"
)

// BlockIndex is the persistent block-key → entity-ID index that makes linking
// incremental: instead of re-running blocking over the full per-type KG view
// on every delta (O(|KG view|)), a delta computes blocking keys only for its
// payload entities and probes the index for the KG-side members of exactly
// the blocks it touches (O(|delta|) probes).
//
// The index is maintained alongside the KG: populated once from the current
// graph when enabled, then updated transactionally at the end of every
// commitDelta from the commit's touched/removed entity sets (the same sets
// the Graph Engine publishes to the operation log), with each touched
// entity's stale postings invalidated per key before its fresh keys are
// re-inserted. Because commits serialize under the pipeline's fusion lock,
// the index observed by a delta's prepare phase is exactly the KG state at
// batch start — the same state the full-scan path reads through KGView.
//
// Postings mirror GeneratePairs' block semantics precisely so the indexed
// path stays byte-identical to the full scan:
//
//   - postings are partitioned by entity type (blocking runs per type group,
//     and an entity carrying several types posts under each, matching
//     Graph.IDsByType);
//   - a key an entity emits k times posts with occurrence count k (block
//     sizes count occurrences, not distinct IDs);
//   - the MaxBlockSize cap is applied at probe time to the combined
//     payload-plus-KG occupancy of the block, exactly as the full scan caps
//     the combined block.
//
// The probe emits only candidate pairs touching at least one payload entity.
// KG–KG pairs — which the full scan also generates — are provably inert in
// resolution: Resolve never lets one KG entity absorb another (a positive
// KG–KG edge is skipped by the ≤1-graph-entity rule) and only consults
// negative evidence for non-KG neighbors, so dropping them changes no
// cluster, no assignment, and no minted identifier. TestResolveIgnoresKGPairs
// and the blockindex equivalence tests pin this invariant down.
type BlockIndex struct {
	mu      sync.RWMutex
	blocker Blocker
	// postings: entity type -> block key -> entity ID -> key occurrences.
	// Occurrence counts (rather than expanded lists) keep insertion and
	// removal O(1) per key even for hot keys whose blocks grow with the KG;
	// pair emission canonicalizes, deduplicates, and sorts, so map iteration
	// order never reaches the output.
	postings map[string]map[string]map[triple.EntityID]int
	// entries remembers what each entity is currently indexed under so a
	// refresh can invalidate its stale postings without rescanning the graph.
	entries map[triple.EntityID]indexEntry

	// monitoring counters (guarded by mu)
	probes    int
	refreshes int
}

// indexEntry records the types and key occurrences an entity was indexed
// under at its last refresh.
type indexEntry struct {
	types []string
	keys  []string
}

// NewBlockIndex constructs an empty index over the given blocking
// configuration; nil uses DefaultBlocker. The blocker must be the one the
// linking stage uses, or probes will not reproduce the full scan's blocks.
func NewBlockIndex(blocker Blocker) *BlockIndex {
	if blocker == nil {
		blocker = DefaultBlocker()
	}
	return &BlockIndex{
		blocker:  blocker,
		postings: make(map[string]map[string]map[triple.EntityID]int),
		entries:  make(map[triple.EntityID]indexEntry),
	}
}

// Build populates the index from every entity currently in the graph: the
// one full scan the index ever performs.
func (ix *BlockIndex) Build(g *triple.Graph) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	g.RangeShared(func(e *triple.Entity) bool {
		ix.insertLocked(e)
		return true
	})
}

// Refresh re-indexes the given entities from the graph's current state:
// stale postings are invalidated per key, then the entity's fresh keys are
// inserted; entities absent from the graph are dropped entirely. commitDelta
// calls this under the fusion lock with exactly the touched and removed
// entity sets of the commit, which keeps the index transactional with the
// KG.
func (ix *BlockIndex) Refresh(g *triple.Graph, ids ...triple.EntityID) {
	if ix == nil || len(ids) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.refreshes += len(ids)
	for _, id := range ids {
		ix.removeLocked(id)
		if e := g.GetShared(id); e != nil {
			ix.insertLocked(e)
		}
	}
}

// insertLocked posts the entity under every (type, key) combination. An
// untyped entity is skipped before its blocking keys are computed.
func (ix *BlockIndex) insertLocked(e *triple.Entity) {
	types := e.Types()
	if len(types) == 0 {
		return
	}
	keys := ix.blocker.Keys(e)
	if len(keys) == 0 {
		return
	}
	ix.entries[e.ID] = indexEntry{types: types, keys: append([]string(nil), keys...)}
	for _, typ := range types {
		byKey := ix.postings[typ]
		if byKey == nil {
			byKey = make(map[string]map[triple.EntityID]int)
			ix.postings[typ] = byKey
		}
		for _, k := range keys {
			counts := byKey[k]
			if counts == nil {
				counts = make(map[triple.EntityID]int)
				byKey[k] = counts
			}
			counts[e.ID]++
		}
	}
}

// removeLocked invalidates every posting the entity holds.
func (ix *BlockIndex) removeLocked(id triple.EntityID) {
	entry, ok := ix.entries[id]
	if !ok {
		return
	}
	delete(ix.entries, id)
	for _, typ := range entry.types {
		byKey := ix.postings[typ]
		if byKey == nil {
			continue
		}
		for _, k := range entry.keys {
			counts := byKey[k]
			if counts == nil {
				continue
			}
			// Remove one occurrence per indexed key occurrence.
			if counts[id] <= 1 {
				delete(counts, id)
			} else {
				counts[id]--
			}
			if len(counts) == 0 {
				delete(byKey, k)
			}
		}
		if len(byKey) == 0 {
			delete(ix.postings, typ)
		}
	}
}

// ProbeResult is the outcome of one indexed pair generation: the blocking
// result over the touched blocks plus the sorted, deduplicated KG-side
// entity IDs that participate in at least one candidate pair (the only KG
// entities the linking stage needs to load).
type ProbeResult struct {
	Blocking BlockingResult
	KGSide   []triple.EntityID
}

// GeneratePairs runs blocking for one payload against the index: keys are
// computed for the payload entities only, each touched block is completed
// with the index's KG-side members for that (type, key), and candidate pairs
// touching at least one payload entity are emitted in the same canonical
// order GeneratePairs produces (MakePair-canonicalized, deduplicated,
// sorted). Blocks whose combined payload-plus-KG occupancy exceeds
// MaxBlockSize are skipped, exactly as the full scan skips the combined
// block. Blocks the payload does not touch are never visited — that is the
// O(|delta|) property.
//
// Every pair involving a payload entity co-occurs with it in some block, and
// every such block is touched by definition, so the emitted set equals the
// full scan's candidate set restricted to payload-touching pairs; the
// remainder (KG–KG pairs) cannot affect resolution (see the type comment).
func (ix *BlockIndex) GeneratePairs(payload []*triple.Entity, entityType string, params GenerateParams) ProbeResult {
	if params.MaxBlockSize == 0 {
		params.MaxBlockSize = 256
	}
	// Payload-side blocks, in occurrence order like the full scan's.
	blocks := make(map[string][]triple.EntityID)
	for _, e := range payload {
		for _, k := range ix.blocker.Keys(e) {
			blocks[k] = append(blocks[k], e.ID)
		}
	}
	srcSet := make(map[triple.EntityID]bool, len(payload))
	for _, e := range payload {
		srcSet[e.ID] = true
	}

	ix.mu.RLock()
	byKey := ix.postings[entityType]
	seen := make(map[Pair]bool)
	res := BlockingResult{Blocks: len(blocks)}
	kgSeen := make(map[triple.EntityID]bool)
	for k, pids := range blocks {
		counts := byKey[k]
		kgSize := 0
		for _, n := range counts {
			kgSize += n
		}
		size := len(pids) + kgSize
		if size > res.LargestSize {
			res.LargestSize = size
		}
		if size > params.MaxBlockSize {
			continue
		}
		block := make([]triple.EntityID, 0, size)
		block = append(block, pids...)
		for id, n := range counts {
			for ; n > 0; n-- {
				block = append(block, id)
			}
		}
		for i := 0; i < len(block); i++ {
			for j := i + 1; j < len(block); j++ {
				if block[i] == block[j] {
					continue
				}
				// KG–KG pairs are inert in resolution; skip them so probe
				// cost tracks the payload, not the block's KG occupancy
				// squared.
				if !srcSet[block[i]] && !srcSet[block[j]] {
					continue
				}
				p := MakePair(block[i], block[j])
				if seen[p] {
					continue
				}
				seen[p] = true
				res.Pairs = append(res.Pairs, p)
				if !srcSet[p.A] {
					kgSeen[p.A] = true
				}
				if !srcSet[p.B] {
					kgSeen[p.B] = true
				}
			}
		}
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	ix.probes++
	ix.mu.Unlock()

	sort.Slice(res.Pairs, func(i, j int) bool {
		if res.Pairs[i].A != res.Pairs[j].A {
			return res.Pairs[i].A < res.Pairs[j].A
		}
		return res.Pairs[i].B < res.Pairs[j].B
	})
	res.Comparisons = len(res.Pairs)
	out := ProbeResult{Blocking: res}
	out.KGSide = make([]triple.EntityID, 0, len(kgSeen))
	for id := range kgSeen {
		out.KGSide = append(out.KGSide, id)
	}
	sort.Slice(out.KGSide, func(i, j int) bool { return out.KGSide[i] < out.KGSide[j] })
	return out
}

// BlockIndexStats summarizes the index for monitoring.
type BlockIndexStats struct {
	Entities  int // entities currently indexed
	Types     int // type partitions
	Keys      int // distinct (type, key) postings
	Probes    int // GeneratePairs calls served
	Refreshes int // entities re-indexed by Refresh
}

// Stats reports the index's current shape and traffic counters.
func (ix *BlockIndex) Stats() BlockIndexStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := BlockIndexStats{
		Entities:  len(ix.entries),
		Types:     len(ix.postings),
		Probes:    ix.probes,
		Refreshes: ix.refreshes,
	}
	for _, byKey := range ix.postings {
		st.Keys += len(byKey)
	}
	return st
}
