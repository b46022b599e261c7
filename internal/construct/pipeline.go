package construct

import (
	"fmt"
	"sort"
	"sync"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
)

// Pipeline is the continuously running, delta-based knowledge construction
// framework (§2.4, Figure 5). It always operates on source diffs: a brand-new
// source arrives as a full Added payload.
//
// Commit-schedule invariants (what may overlap, what serializes):
//
//   - Validation of every delta in a Consume batch completes before the first
//     commit, so a batch containing a bad delta leaves the KG untouched.
//   - The snapshot phase — every KG read a delta's linking needs (link-index
//     lookups, block-index probes or KG-view materialization, candidate
//     loading) — runs for the whole batch against the KG state at batch
//     start, before any commit. Deltas of one batch therefore never link
//     against each other's output; with the block index enabled this phase is
//     O(|delta|) per delta.
//   - The compute phase (blocking on the scan path, pair scoring, component
//     clustering) is pure and runs concurrently on the worker pool — across
//     deltas and, within a delta, across type groups and candidate-graph
//     components. It finishes for the whole batch before the first commit.
//   - Commits serialize under the commit lock in input order. Every graph
//     write — minting, object resolution, stub creation, fusion, index and
//     resolver-cache maintenance — happens inside a commit, in an order fixed
//     by the input alone.
//
// A parallel run therefore writes a KG byte-identical to a sequential one.
type Pipeline struct {
	// KG is the graph under construction.
	KG *KG
	// Ont is the shared ontology.
	Ont *ontology.Ontology
	// Link configures the linking stage.
	Link LinkParams
	// Fuser merges payloads; nil gets a default wired to Ont.
	Fuser *Fuser
	// Resolver performs object resolution. Nil maintains an incremental
	// AliasResolver over the KG: built once from the graph, then invalidated
	// from each commit's touched/removed entity sets.
	Resolver ObjectResolver
	// Workers bounds intra-delta parallelism (and Consume's cross-delta
	// preparation): 0 means GOMAXPROCS, 1 forces the sequential reference
	// path. The produced KG is identical for every value.
	Workers int

	// commitHook, when set (tests only), runs at the start of every
	// commitDelta under the commit lock, before any graph write; a non-nil
	// error aborts that delta's commit cleanly, leaving the KG and the
	// KG-derived caches exactly as the previous commit left them. It exists
	// to exercise the mid-batch commit-error contract, which no production
	// commit path currently triggers on its own.
	commitHook func(source string) error

	// index, when non-nil, switches linking to the incremental path: deltas
	// probe its block-key → entity-ID postings for KG-side candidates instead
	// of scanning the full per-type KG view, and every commit refreshes it
	// for exactly the entities it wrote or removed. Nil links by full scan,
	// the reference path; the constructed KG is byte-identical either way.
	// Set by EnableBlockIndex.
	index *BlockIndex

	// commitMu is the commit lock: commits serialize under it.
	commitMu    sync.Mutex
	conflictsMu sync.Mutex
	conflicts   []Conflict

	// resolverMu guards the lazily built alias-resolver cache; the resolver
	// itself is internally synchronized so commits can read it while curation
	// refreshes it.
	resolverMu    sync.Mutex
	aliasResolver *AliasResolver

	fusionMu sync.Mutex
	fusion   FusionStats
}

// FusionStats counts the commit phase's fusion traffic. Every mutation a
// commit makes to a KG entity other than a fresh OBR stub folds into that
// entity's one FuseBatch, so Targets counts the commit path's graph writes,
// and Payloads/Targets is the batching amortization: how many mutations
// (same-as carriers, adds, updates, source removals, volatile overwrites)
// each write carried.
type FusionStats struct {
	Commits  int // commitDelta invocations
	Targets  int // KG entities written or removed, once per commit each
	Payloads int // mutations folded into those writes
}

// FusionStats reports the accumulated fusion counters.
func (p *Pipeline) FusionStats() FusionStats {
	p.fusionMu.Lock()
	defer p.fusionMu.Unlock()
	return p.fusion
}

// workers resolves the pipeline's effective worker count.
func (p *Pipeline) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return effectiveWorkers(p.Link.Workers)
}

// NewPipeline wires a construction pipeline over the KG and ontology, with
// default linking and fusion parameters.
func NewPipeline(kg *KG, ont *ontology.Ontology) *Pipeline {
	return &Pipeline{KG: kg, Ont: ont, Fuser: &Fuser{Ont: ont}}
}

// EnableBlockIndex builds the block index from the KG's current state (the
// one full scan it ever performs) over the pipeline's linking blocker and
// switches linking to the incremental path. Call after wiring Link and before
// consuming deltas; every subsequent commit keeps the index transactional
// with the KG.
func (p *Pipeline) EnableBlockIndex() {
	p.index = NewBlockIndex(p.Link.withDefaults().Blocker)
	p.index.Build(p.KG.Graph)
}

// BlockIndexStats reports the block index (zero in full-scan mode).
func (p *Pipeline) BlockIndexStats() BlockIndexStats {
	if p.index == nil {
		return BlockIndexStats{}
	}
	return p.index.Stats()
}

// RefreshKGCaches re-derives the pipeline's KG-derived caches — the block
// index and the cached alias resolver — for the given entities from the KG's
// current state. The pipeline keeps both current for its own commits; callers
// that mutate the graph directly (curation hot fixes, manual repairs) must
// report the entities they touched or deleted here.
func (p *Pipeline) RefreshKGCaches(ids ...triple.EntityID) {
	p.index.Refresh(p.KG.Graph, ids...)
	p.resolverMu.Lock()
	cached := p.aliasResolver
	p.resolverMu.Unlock()
	if cached != nil {
		cached.Refresh(p.KG.Graph, ids...)
	}
}

// kgResolver returns the cached incremental alias resolver, building it from
// the graph's current state on first use (the one full scan it performs);
// commits invalidate it from their touched/removed sets afterwards.
func (p *Pipeline) kgResolver() *AliasResolver {
	p.resolverMu.Lock()
	defer p.resolverMu.Unlock()
	if p.aliasResolver == nil {
		p.aliasResolver = NewAliasResolver(p.KG.Graph, p.Ont)
	}
	return p.aliasResolver
}

// BatchError reports a mid-batch commit failure inside Consume or a Feed
// batch. Commits are input-ordered and each delta's
// commit is all-or-nothing, so the failure splits the batch exactly: deltas
// [0, Index) are fully applied — the partial-prefix contract — the delta at
// Index failed before writing anything, and nothing at or after Index is
// applied. The KG and its derived caches (block index, alias-resolver cache)
// are byte-identical to consuming just the prefix, and the returned stats
// carry exactly the prefix's entries.
type BatchError struct {
	// Index is the input position of the delta whose commit failed; it is
	// also the number of fully committed deltas (the prefix length).
	Index int
	// Err is the underlying commit error.
	Err error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("construct: batch commit failed at delta %d (deltas [0,%d) remain applied): %v", e.Index, e.Index, e.Err)
}

// Unwrap exposes the underlying commit error.
func (e *BatchError) Unwrap() error { return e.Err }

// SourceStats summarizes one consumed delta.
type SourceStats struct {
	Source      string
	LinkedAdds  int // source entities linked through the full pipeline
	NewEntities int // fresh KG identifiers minted (including OBR stubs)
	Updated     int // entities refreshed via ID lookup
	Deleted     int // source contributions removed
	Volatile    int // entities refreshed via partition overwrite
	Conflicts   int // functional-predicate conflicts resolved
	Comparisons int // matcher invocations after blocking

	// Touched lists the KG entities written by this delta (sorted), and
	// Removed the KG entities deleted outright; the sets are disjoint by
	// construction (an entity both re-added and deleted in one delta ends up
	// in exactly one of them). The Graph Engine publishes exactly these to
	// the operation log.
	Touched []triple.EntityID
	Removed []triple.EntityID

	// Links records the link-table entries this delta settled (source entity
	// ID → canonical KG entity ID) and Unlinks the entries it removed. The
	// link table is construction metadata the entity payloads cannot
	// reproduce, so the publisher rides these deltas on log ops (conflated
	// per source ID like entity state) and recovery replays them.
	Links   map[triple.EntityID]triple.EntityID
	Unlinks []triple.EntityID
}

// addLink records a settled link delta.
func (s *SourceStats) addLink(src, kgID triple.EntityID) {
	if s.Links == nil {
		s.Links = make(map[triple.EntityID]triple.EntityID)
	}
	s.Links[src] = kgID
}

// addUnlink records a removed link delta (superseding any link this delta
// settled for the same source ID).
func (s *SourceStats) addUnlink(src triple.EntityID) {
	delete(s.Links, src)
	s.Unlinks = append(s.Unlinks, src)
}

func (s SourceStats) String() string {
	return fmt.Sprintf("%s: adds=%d new=%d upd=%d del=%d rm=%d vol=%d conflicts=%d cmp=%d",
		s.Source, s.LinkedAdds, s.NewEntities, s.Updated, s.Deleted, len(s.Removed), s.Volatile, s.Conflicts, s.Comparisons)
}

// linkedUpdate pairs an updated source entity with its existing KG link.
type linkedUpdate struct {
	kgID triple.EntityID
	ent  *triple.Entity
}

// deleteLink pairs a deleted source entity with its existing KG link.
type deleteLink struct {
	src  triple.EntityID
	kgID triple.EntityID
}

// preparedDelta carries a delta through the consume phases: snapshotDelta
// fills the link lookups and per-type candidate plans (every KG read),
// computeDelta solves the plans into resolutions (pure compute), and
// commitDelta applies the result. Snapshots and computations of a batch all
// run before its first commit.
type preparedDelta struct {
	delta       ingest.Delta
	updates     []linkedUpdate
	deleteLinks []deleteLink
	addGroups   map[string][]*triple.Entity
	addTypes    []string
	plans       []typeLinkPlan   // one per addTypes entry, same order
	resolutions []typeResolution // one per addTypes entry, same order
}

// validateDelta checks the pipeline wiring and the delta payload (nil
// entities, empty IDs) before any state changes. Consume validates every
// delta of a batch before the first commit, so a batch containing a bad delta
// leaves the KG untouched instead of half-applied.
func (p *Pipeline) validateDelta(d ingest.Delta) error {
	if p.KG == nil || p.Ont == nil {
		return fmt.Errorf("construct: pipeline missing KG or ontology")
	}
	check := func(kind string, ents []*triple.Entity) error {
		for i, e := range ents {
			if e == nil {
				return fmt.Errorf("construct: delta %q: nil entity at %s[%d]", d.Source, kind, i)
			}
			if e.ID == "" {
				return fmt.Errorf("construct: delta %q: empty entity ID at %s[%d]", d.Source, kind, i)
			}
		}
		return nil
	}
	if err := check("Added", d.Added); err != nil {
		return err
	}
	if err := check("Updated", d.Updated); err != nil {
		return err
	}
	if err := check("Volatile", d.Volatile); err != nil {
		return err
	}
	for i, id := range d.Deleted {
		if id == "" {
			return fmt.Errorf("construct: delta %q: empty entity ID at Deleted[%d]", d.Source, i)
		}
	}
	return nil
}

// snapshotDelta performs every KG read consuming the delta needs — update and
// delete link lookups plus the per-type candidate gather (block-index probe
// and candidate load, or KG-view materialization) — against the KG's current
// state. With the block index enabled this is O(|delta|). The returned
// preparedDelta is self-contained: computeDelta never touches the KG. b is
// the consume call's shared helper-goroutine budget.
func (p *Pipeline) snapshotDelta(d ingest.Delta, b *WorkerBudget) *preparedDelta {
	pd := &preparedDelta{delta: d}

	// Updated entities that lost their link (for example after an on-demand
	// deletion) re-enter through the full linking path.
	adds := append([]*triple.Entity(nil), d.Added...)
	for _, e := range d.Updated {
		if kgID, ok := p.KG.Lookup(e.ID); ok {
			pd.updates = append(pd.updates, linkedUpdate{kgID: kgID, ent: e})
		} else {
			adds = append(adds, e)
		}
	}
	seenDel := make(map[triple.EntityID]bool, len(d.Deleted))
	for _, src := range d.Deleted {
		if seenDel[src] {
			continue
		}
		seenDel[src] = true
		if kgID, ok := p.KG.Lookup(src); ok {
			pd.deleteLinks = append(pd.deleteLinks, deleteLink{src: src, kgID: kgID})
		}
	}

	pd.addGroups, pd.addTypes = GroupByType(adds)
	pd.plans = make([]typeLinkPlan, len(pd.addTypes))
	params := p.Link.withDefaults()
	runIndexedBudget(b, p.workers(), len(pd.addTypes), func(i int) {
		typ := pd.addTypes[i]
		if p.index != nil {
			pd.plans[i] = gatherTypeGroupIndexed(pd.addGroups[typ], p.KG, p.index, typ, params)
		} else {
			pd.plans[i] = gatherTypeGroup(pd.addGroups[typ], p.KG.KGViewShared(typ), typ)
		}
	})
	return pd
}

// computeDelta runs the pure-compute half of the pipeline over a snapshotted
// delta: per-type blocking (scan path), pair scoring, and component
// clustering on the worker pool. It reads no KG state; the scan and indexed
// paths produce identical resolutions for every cluster containing source
// entities.
func (p *Pipeline) computeDelta(pd *preparedDelta, b *WorkerBudget) {
	params := p.Link
	if params.Workers == 0 {
		params.Workers = p.workers()
	}
	params.budget = b
	pd.resolutions = make([]typeResolution, len(pd.addTypes))
	runIndexedBudget(b, p.workers(), len(pd.addTypes), func(i int) {
		pd.resolutions[i] = pd.plans[i].solve(params)
	})
}

// newBudget creates the shared helper-goroutine budget one top-level consume
// call threads through all of its nested pools (delta preparation × type
// groups × candidate-graph components × object resolution): the caller is
// one worker, so the budget holds workers−1 helper tokens. Sharing one
// budget closes the goroutine multiplication the independent pool sizing had
// on large batches; scheduling changes, output never does.
func (p *Pipeline) newBudget() *WorkerBudget {
	return NewWorkerBudget(effectiveWorkers(p.workers()) - 1)
}

// fuseGroup is one batched-fusion unit: every mutation of a commit that
// lands on one target KG entity, in the per-entity order (same-as carriers,
// adds, updates, the source's removal, volatile overwrites).
type fuseGroup struct {
	id  triple.EntityID
	ops []FuseOp
}

// commitDelta applies a prepared delta to the KG under the commit lock: KG
// identifiers are minted in canonical type-then-cluster order, object
// resolution runs (parallel over entities, with stub minting deferred to a
// sequential canonical pass), and payloads fuse — grouped by target KG
// entity, one batched fuse per target, targets in canonical order. Because
// every write happens here, in an order fixed by the input alone, parallel and
// sequential runs produce byte-identical KGs.
func (p *Pipeline) commitDelta(pd *preparedDelta, b *WorkerBudget) (SourceStats, error) {
	d := pd.delta
	stats := SourceStats{Source: d.Source}
	fuser := p.Fuser
	if fuser == nil {
		fuser = &Fuser{Ont: p.Ont}
	}

	p.commitMu.Lock()
	defer p.commitMu.Unlock()

	if p.commitHook != nil {
		if err := p.commitHook(d.Source); err != nil {
			return stats, err
		}
	}

	resolver := p.Resolver
	if resolver == nil {
		// The cached incremental resolver replaces the former per-commit
		// rebuild from a full Graph.Snapshot (O(|KG|) every commit); it is
		// invalidated below from exactly this commit's written/removed sets.
		resolver = p.kgResolver()
	}

	// Record links and collect the batch-wide assignment before OBR so that
	// intra-batch references resolve; minting happens inside assign, in
	// sorted type order.
	assignment := make(map[triple.EntityID]triple.EntityID)
	outcomes := make([]LinkOutcome, len(pd.resolutions))
	for i, tr := range pd.resolutions {
		outcome := tr.assign(p.KG.Graph.NewID)
		outcomes[i] = outcome
		for src, kgID := range outcome.Assignment {
			assignment[src] = kgID
			p.KG.Link(src, kgID)
			stats.addLink(src, kgID)
		}
		stats.LinkedAdds += len(tr.src)
		stats.NewEntities += outcome.NewEntities
		stats.Comparisons += outcome.Blocking.Comparisons
	}
	for _, u := range pd.updates {
		assignment[u.ent.ID] = u.kgID
	}

	// Object resolution over adds and updates, parallel per entity; dangling
	// references come back as deferred stub requests.
	entities := make([]*triple.Entity, 0, len(assignment))
	for _, typ := range pd.addTypes {
		entities = append(entities, pd.addGroups[typ]...)
	}
	for _, u := range pd.updates {
		entities = append(entities, u.ent)
	}
	pending := make([][]stubRef, len(entities))
	runIndexedBudget(b, p.workers(), len(entities), func(i int) {
		pending[i] = resolveObjects(entities[i], assignment, p.KG, resolver, p.Ont)
	})
	// Mint one stub per distinct dangling target, in canonical entity order,
	// then apply the deferred rewrites. (Deduplicating across entities also
	// means two payload entities dangling on the same target now share one
	// stub instead of racing to create two.)
	stubs := make(map[triple.EntityID]triple.EntityID)
	var stubIDs []triple.EntityID
	for _, refs := range pending {
		for _, ref := range refs {
			if _, ok := stubs[ref.target]; ok {
				continue
			}
			id := p.KG.Graph.NewID()
			stub := triple.NewEntity(id)
			stub.Add(triple.New(id, triple.PredType, triple.String(orDefault(ref.typ, "entity"))).WithSource(d.Source, 0.5))
			stub.Add(triple.New(id, triple.PredName, triple.String(ref.mention)).WithSource(d.Source, 0.5))
			p.KG.Graph.Put(stub)
			p.KG.Link(ref.target, id)
			stats.addLink(ref.target, id)
			stubs[ref.target] = id
			stubIDs = append(stubIDs, id)
		}
	}
	for i, refs := range pending {
		if len(refs) == 0 {
			continue
		}
		rw := make(map[triple.EntityID]triple.EntityID, len(refs))
		for _, ref := range refs {
			rw[ref.target] = stubs[ref.target]
		}
		entities[i].Rewrite(entities[i].ID, rw)
	}

	// Fusion: every mutation of a KG entity this commit makes — payload
	// merges, the source's removal, volatile overwrites — lands in that
	// entity's fuse group, and each group is one FuseBatch: one graph write
	// and one conflict-resolution pass per target, targets in canonical
	// first-mutation order. Within a target the stable ops keep the
	// per-entity order: same_as carriers (SameAs is sorted, so consecutive
	// runs share a subject and carriers fuse in subject order), then adds,
	// then updates (each update stripping the source's stale stable facts
	// before its payload merges); FuseBatch applies removals and volatile
	// overwrites after them.
	groupIdx := make(map[triple.EntityID]int)
	var groups []fuseGroup
	addOp := func(id triple.EntityID, op FuseOp) {
		gi, ok := groupIdx[id]
		if !ok {
			gi = len(groups)
			groupIdx[id] = gi
			groups = append(groups, fuseGroup{id: id})
		}
		groups[gi].ops = append(groups[gi].ops, op)
	}
	for _, outcome := range outcomes {
		for lo := 0; lo < len(outcome.SameAs); {
			hi := lo + 1
			for hi < len(outcome.SameAs) && outcome.SameAs[hi].Subject == outcome.SameAs[lo].Subject {
				hi++
			}
			carrier := triple.NewEntity(outcome.SameAs[lo].Subject)
			carrier.Add(outcome.SameAs[lo:hi]...)
			addOp(carrier.ID, FuseOp{Incoming: carrier})
			lo = hi
		}
	}
	for _, typ := range pd.addTypes {
		for _, e := range pd.addGroups[typ] {
			kgID, ok := assignment[e.ID]
			if !ok {
				continue
			}
			linked := e.Clone()
			linked.Rewrite(kgID, nil)
			addOp(kgID, FuseOp{Incoming: linked})
		}
	}
	for _, u := range pd.updates {
		// Replace this source's stable contribution: strip, then re-fuse.
		linked := u.ent.Clone()
		linked.Rewrite(u.kgID, nil)
		addOp(u.kgID, FuseOp{StripSource: d.Source, Incoming: linked})
		stats.Updated++
	}
	for _, dl := range pd.deleteLinks {
		addOp(dl.kgID, FuseOp{RemoveSource: d.Source})
		p.KG.Unlink(dl.src)
		stats.addUnlink(dl.src)
		stats.Deleted++
	}
	for _, v := range d.Volatile {
		kgID, ok := assignment[v.ID]
		if !ok {
			if kgID, ok = p.KG.Lookup(v.ID); !ok {
				continue // entity not (yet) part of the KG
			}
		}
		addOp(kgID, FuseOp{OverwriteSource: d.Source, Incoming: v})
	}

	touched := make(map[triple.EntityID]bool, len(groups)+len(stubIDs))
	for _, id := range stubIDs {
		touched[id] = true
	}
	var conflicts []Conflict
	payloads := 0
	for _, g := range groups {
		payloads += len(g.ops)
		c, deleted := fuser.fuseBatch(p.KG.Graph, g.id, g.ops)
		conflicts = append(conflicts, c...)
		if deleted {
			// A removal emptied the entity: it is removed, not touched, and
			// the same delta's volatile partition did not resurrect it.
			stats.Removed = append(stats.Removed, g.id)
			delete(touched, g.id)
			continue
		}
		touched[g.id] = true
		for _, op := range g.ops {
			if op.OverwriteSource != "" {
				stats.Volatile++
			}
		}
	}
	p.fusionMu.Lock()
	p.fusion.Commits++
	p.fusion.Targets += len(groups)
	p.fusion.Payloads += payloads
	p.fusionMu.Unlock()

	for id := range touched {
		stats.Touched = append(stats.Touched, id)
	}
	sort.Slice(stats.Touched, func(i, j int) bool { return stats.Touched[i] < stats.Touched[j] })
	sort.Slice(stats.Removed, func(i, j int) bool { return stats.Removed[i] < stats.Removed[j] })
	stats.Conflicts = len(conflicts)
	if len(conflicts) > 0 {
		p.conflictsMu.Lock()
		p.conflicts = append(p.conflicts, conflicts...)
		p.conflictsMu.Unlock()
	}
	// Transactional cache maintenance: still under the commit lock, re-index
	// exactly the entities this commit wrote and drop the ones it removed —
	// one refresh per target KG id — in both the block index and the cached
	// alias resolver. The next snapshot — whether of the next batch or a
	// concurrent consume call — reads caches that match the graph it links
	// against.
	p.RefreshKGCaches(stats.Touched...)
	p.RefreshKGCaches(stats.Removed...)
	return stats, nil
}

// ConsumeDelta runs one source's payload through the construction pipeline:
// ToAdd links fully (blocking, matching, resolution); ToUpdate and ToDelete
// look up their existing links; volatile payloads overwrite their partition
// after everything else fuses. It is Consume of a one-delta batch.
func (p *Pipeline) ConsumeDelta(d ingest.Delta) (SourceStats, error) {
	all, err := p.Consume([]ingest.Delta{d})
	if err != nil {
		return SourceStats{Source: d.Source}, err
	}
	return all[0], nil
}

// Consume processes a batch of source deltas. Every delta is validated, then
// every delta's KG reads are snapshotted against the batch-start state, every
// delta's linking computes on the worker pool, and then the deltas commit —
// minting, object resolution, fusion — in input order. Commit order is fixed
// by the input, never by goroutine scheduling, so a Consume over independent
// deltas produces exactly the KG of ConsumeSequential over the same slice.
// (Each delta of a batch links against the KG state at batch start; deltas of
// one batch never link against each other's output.) A validation error
// commits nothing. Results are ordered as the input.
//
// A mid-batch commit error follows the partial-prefix contract: the returned
// error is a *BatchError, deltas before its Index remain fully applied with
// their stats entries filled (later entries are zero), and the KG-derived
// caches match the applied prefix.
func (p *Pipeline) Consume(deltas []ingest.Delta) ([]SourceStats, error) {
	for i := range deltas {
		if err := p.validateDelta(deltas[i]); err != nil {
			return make([]SourceStats, len(deltas)), err
		}
	}
	return p.consumeValidated(deltas)
}

// consumeValidated is Consume without the validation pass; the standing Feed
// enters here because Submit already validated the batch.
func (p *Pipeline) consumeValidated(deltas []ingest.Delta) ([]SourceStats, error) {
	stats := make([]SourceStats, len(deltas))
	b := p.newBudget()
	pds := make([]*preparedDelta, len(deltas))
	runIndexedBudget(b, p.workers(), len(deltas), func(i int) {
		pds[i] = p.snapshotDelta(deltas[i], b)
	})
	runIndexedBudget(b, p.workers(), len(pds), func(i int) {
		p.computeDelta(pds[i], b)
	})
	for i := range pds {
		s, err := p.commitDelta(pds[i], b)
		if err != nil {
			return stats, &BatchError{Index: i, Err: err}
		}
		stats[i] = s
	}
	return stats, nil
}

// ConsumeSequential processes deltas one at a time; the ablation comparator
// for Consume's inter-source parallelism. Unlike Consume, each delta links
// against the previous delta's output, so the two agree exactly on batches of
// independent deltas.
func (p *Pipeline) ConsumeSequential(deltas []ingest.Delta) ([]SourceStats, error) {
	out := make([]SourceStats, 0, len(deltas))
	for _, d := range deltas {
		s, err := p.ConsumeDelta(d)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// DrainConflicts returns and clears the accumulated fusion conflicts; the
// curation pipeline consumes them (§4.3).
func (p *Pipeline) DrainConflicts() []Conflict {
	p.conflictsMu.Lock()
	defer p.conflictsMu.Unlock()
	out := p.conflicts
	p.conflicts = nil
	return out
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
