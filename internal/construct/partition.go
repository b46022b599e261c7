package construct

import (
	"hash/fnv"

	"saga/internal/triple"
)

// This file is what a Pipeline with several partitions does differently from
// one with a single partition: type-hash routing and the deferred volatile
// backlog with its batch-boundary exchange.
//
// Cross-partition linking is two-phase (docs/INVARIANTS.md
// #cross-partition-linking):
//
//  1. Local phase: linking is strictly per-type (GroupByType splits every
//     delta; blocking, matching, and clustering never cross a type group), so
//     every candidate pair of a payload entity lives inside the owner
//     partition of its type and resolves locally against that partition's
//     block index.
//  2. Exchange phase: the traffic that does cross partitions — volatile
//     overwrites whose target type another partition owns — is enqueued as
//     boundary blocks (per-target op lists with consecutive same-source ops
//     collapsed to the survivor) and exchanged at batch boundaries:
//     FlushVolatile applies the whole backlog under the commit lock,
//     partitions in parallel. Cross-partition object-resolution references
//     need no exchange: they resolve at commit through the shared link table
//     and mint shared-KG stubs.
//
// Byte-identity with inline overwrites holds because deferral is invisible to
// every reader on the construction path: linking, blocking, and alias
// resolution read only stable predicates (names, aliases, types — never a
// volatile partition), and any stable write that would interleave with a
// deferred op forces that target's backlog to flush first (flush-on-conflict
// inside commit, under the same lock). A target's applied op sequence is
// therefore a subsequence-collapsed replay of the inline one, and collapse is
// exact: ApplyVolatileOverwrite replaces the source's whole volatile
// partition, so only the last consecutive op per (target, source) survives in
// either schedule.

// PartitionOfType maps an entity type to its owning construction partition:
// a stable FNV-1a hash of the type string mod the partition count.
//
// Partitioning by *type* (rather than by entity id) is what keeps the
// cross-partition protocol cheap: blocking, matching, and clustering are
// strictly per-type (GroupByType splits every delta, and the block index is
// type-partitioned), so every linking candidate of a payload entity lives in
// the owner partition of its type. Local linking is therefore already
// complete — the boundary work that remains for the exchange phase is the
// cross-type traffic that escapes linking by construction: object-resolution
// references into other partitions' entities (resolved against the shared
// link table at commit) and deferred volatile overwrites routed to the
// target's owner (flushed at batch-boundary exchanges).
func PartitionOfType(entityType string, partitions int) int {
	if partitions <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(entityType))
	return int(h.Sum32() % uint32(partitions))
}

// partOfType is PartitionOfType over this pipeline's partition count.
func (p *Pipeline) partOfType(entityType string) int {
	return PartitionOfType(entityType, p.partitions)
}

// partOfEntity routes an entity to the owner partition of its first type
// (deterministic: Types reflects canonical triple order), partition 0 when
// untyped.
func (p *Pipeline) partOfEntity(e *triple.Entity) int {
	if types := e.Types(); len(types) > 0 {
		return p.partOfType(types[0])
	}
	return 0
}

// volatileOp is one deferred volatile overwrite: the source and the payload
// entity whose volatile partition replaces that source's previous one.
type volatileOp struct {
	source  string
	payload *triple.Entity
}

// deferredTarget is one KG entity's boundary block: its deferred ops in
// enqueue order, pinned to the partition that owned the target when the first
// op arrived, so a target whose type set changes mid-window cannot end up
// split across two partitions (the per-target op order must stay total).
type deferredTarget struct {
	part int
	ops  []volatileOp
}

// VolatileBacklogStats counts the deferred-overwrite traffic. Enqueued −
// Collapsed − Applied = Pending; Enqueued/Applied is the write amortization
// the deferral bought (how many overwrites the exchange window absorbed per
// graph write).
type VolatileBacklogStats struct {
	Enqueued  int // volatile ops routed into the backlog
	Collapsed int // ops absorbed by a consecutive same-source predecessor
	Applied   int // ops drained from the backlog by flushes
	Flushes   int // FlushVolatile / flush-on-conflict sweeps that found work
	Pending   int // ops currently deferred
}

// VolatileStats reports the deferred-overwrite counters.
func (p *Pipeline) VolatileStats() VolatileBacklogStats {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	st := p.volStats
	for _, t := range p.backlog {
		st.Pending += len(t.ops)
	}
	return st
}

// HasPending reports whether the entity has deferred volatile ops; the
// platform's publisher holds such entities back until the next exchange so
// the stores never observe a state inline overwrites couldn't have published.
// A flush clears an entity's pending mark only after its ops are in the
// graph, so "not pending" means the graph holds the entity's whole state.
func (p *Pipeline) HasPending(id triple.EntityID) bool {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	return p.backlog[id] != nil
}

// PendingVolatile returns the number of entities with deferred ops.
func (p *Pipeline) PendingVolatile() int {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	return len(p.backlog)
}

// enqueueVolatile routes one deferred overwrite into its target's boundary
// block, collapsing consecutive same-source ops (the overwrite replaces the
// source's whole volatile partition, so only the last consecutive op per
// source survives either way — the collapse is exact, not approximate).
// Callers hold commitMu.
func (p *Pipeline) enqueueVolatile(kgID triple.EntityID, source string, payload *triple.Entity) {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	p.volStats.Enqueued++
	t := p.backlog[kgID]
	if t == nil {
		t = &deferredTarget{}
		if e := p.KG.Graph.GetShared(kgID); e != nil {
			t.part = p.partOfEntity(e)
		}
		p.backlog[kgID] = t
	}
	if n := len(t.ops); n > 0 && t.ops[n-1].source == source {
		t.ops[n-1].payload = payload
		p.volStats.Collapsed++
		return
	}
	t.ops = append(t.ops, volatileOp{source: source, payload: payload})
}

// applyDeferred replays one target's deferred ops in enqueue order. A target
// deleted since the enqueue (a curation hot fix) has nothing to overwrite.
func (p *Pipeline) applyDeferred(id triple.EntityID, ops []volatileOp) {
	if p.KG.Graph.GetShared(id) == nil {
		return
	}
	for _, op := range ops {
		ApplyVolatileOverwrite(p.KG.Graph, id, op.source, op.payload, p.Ont)
	}
}

// flushConflicts applies and clears the deferred ops of a commit's stable
// write targets — its assignment targets and delete targets — before the
// commit writes them (callers hold commitMu). No cache refresh here: the
// targets are part of the calling commit's written set and refresh at its
// end; volatile partitions are invisible to the block indexes and the alias
// resolver anyway.
func (p *Pipeline) flushConflicts(assignment map[triple.EntityID]triple.EntityID, deletes []deleteLink) {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	if len(p.backlog) == 0 {
		return
	}
	applied := 0
	flush := func(id triple.EntityID) {
		if t := p.backlog[id]; t != nil {
			p.applyDeferred(id, t.ops)
			applied += len(t.ops)
			delete(p.backlog, id)
		}
	}
	for _, kgID := range assignment {
		flush(kgID)
	}
	for _, dl := range deletes {
		flush(dl.kgID)
	}
	if applied > 0 {
		p.volStats.Applied += applied
		p.volStats.Flushes++
	}
}

// FlushVolatile applies the whole deferred volatile backlog — the exchange
// phase of the two-phase protocol — and returns the number of ops drained.
// It takes the commit lock (overwrites must not slide past a concurrent
// commit's stable writes on the same targets), applies partitions in
// parallel on a fresh worker budget (their target sets are disjoint), ops per
// target in enqueue order, and refreshes the KG-derived caches for every
// flushed entity. With nothing deferred — always, with one partition — it
// returns without queueing behind a running commit.
func (p *Pipeline) FlushVolatile() int {
	if p.PendingVolatile() == 0 {
		return 0
	}
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	applied := 0
	flushed := make([]triple.EntityID, 0, len(p.backlog))
	perPart := make([][]triple.EntityID, p.partitions)
	for id, t := range p.backlog {
		applied += len(t.ops)
		flushed = append(flushed, id)
		perPart[t.part] = append(perPart[t.part], id)
	}
	if applied == 0 {
		return 0 // a commit's flush-on-conflict drained it while we waited
	}
	runIndexedBudget(p.newBudget(), p.workers(), p.partitions, func(part int) {
		for _, id := range perPart[part] {
			p.applyDeferred(id, p.backlog[id].ops)
		}
	})
	p.backlog = make(map[triple.EntityID]*deferredTarget)
	p.volStats.Applied += applied
	p.volStats.Flushes++
	p.RefreshKGCaches(flushed...)
	return applied
}
