// Package core wires Saga's subsystems into the end-to-end platform of
// Figure 1: source ingestion feeds the batch construction pipeline, the
// construction pipeline is the sole producer into the Graph Engine's
// operation log, orchestration agents derive every store's view of the KG,
// the live graph serves a view of the stable KG unioned with streaming
// sources, and the ML services (NERD, embeddings, importance) are built over
// the same engine.
package core

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"saga/internal/construct"
	"saga/internal/graphengine"
	"saga/internal/importance"
	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/live/kgq"
	"saga/internal/nerd"
	"saga/internal/ontology"
	"saga/internal/oplog"
	"saga/internal/storage"
	"saga/internal/storage/disk"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

// StorageOptions selects the storage medium for the platform's stores
// (entity KV, record log, staging blobs, checkpoints).
type StorageOptions struct {
	// Backend is "memory" (or empty) or "disk". The memory backend keeps
	// the entity KV in memory, and the log, staging store, and checkpoints
	// too unless DurabilityOptions.Dir makes them durable. The disk backend
	// keeps all four under DataDir.
	Backend string
	// DataDir roots the disk backend's files: the durable layout of
	// DurabilityOptions.Dir plus the entity KV (DataDir/entities.dat).
	// Required by disk; ignored by memory.
	DataDir string
}

// ConstructionOptions tunes the KG construction pipeline.
type ConstructionOptions struct {
	// LinkParams tunes the construction linking stage.
	LinkParams construct.LinkParams
	// Workers bounds the construction pipeline's intra-delta parallelism
	// (pair scoring, component clustering, object resolution). 0 means
	// GOMAXPROCS; 1 forces the sequential reference path. The constructed KG
	// is identical for every value — workers only change wall-clock time.
	Workers int
}

// DurabilityOptions configures crash recovery: where durable log/checkpoint
// state lives when the store backend itself is volatile, and the cadence of
// checkpoints and log compaction.
type DurabilityOptions struct {
	// Dir, with the memory backend, roots the durable layout — a segmented
	// operation log (Dir/oplog), the segment staging store (Dir/staging),
	// and checkpoint files (Dir/checkpoints) — while the serving stores stay
	// volatile: the hybrid deployment where only replayable state survives a
	// restart. The disk backend opens the same layout under Storage.DataDir
	// and ignores Dir.
	Dir string
	// CheckpointEvery takes a durable checkpoint every N published batches,
	// on the feed's publisher after a group's ops, so it never stalls the
	// commit loop.
	// 0 disables periodic checkpoints; explicit Checkpoint calls still work.
	CheckpointEvery int
	// CompactAfter triggers background log compaction once the prefix at or
	// below the compaction floor (the penultimate checkpoint watermark)
	// holds at least this many ops. 0 disables automatic compaction;
	// explicit Compact calls still work.
	CompactAfter int
}

// Options configures a platform, grouped by subsystem.
type Options struct {
	// Ontology defaults to ontology.Default().
	Ontology *ontology.Ontology
	// Storage selects the store backend.
	Storage StorageOptions
	// Construction tunes the construction pipeline.
	Construction ConstructionOptions
	// Durability configures crash recovery, checkpoints, and log compaction.
	Durability DurabilityOptions
}

// withDefaults resolves zero values to their documented defaults.
func (o Options) withDefaults() Options {
	if o.Ontology == nil {
		o.Ontology = ontology.Default()
	}
	return o
}

// Platform is the assembled knowledge platform.
type Platform struct {
	Ont *ontology.Ontology
	KG  *construct.KG
	// Pipeline is the construction pipeline, the sole producer into the
	// Graph Engine's log.
	Pipeline *construct.Pipeline

	Engine       *graphengine.Engine
	EntityStore  *entitystore.Store
	GraphReplica *triple.Graph

	// Live is the live KG store every serving read reaches through a
	// versioned snapshot.
	Live            *live.Store
	LiveConstructor *live.Constructor
	LiveEngine      *kgq.Engine
	Intents         *live.IntentHandler
	Curation        *live.Queue

	// NERD is built on demand by BuildNERD.
	NERD *nerd.NERD

	// Checkpoints is the durable checkpoint store; nil when the platform has
	// no durable checkpoint target (volatile backend without Durability.Dir).
	Checkpoints storage.Checkpointer

	snapshots map[string]ingest.Snapshot

	// feed is the platform's one standing feed, open from Open to Close:
	// every KG write is a batch or a barrier turn on its commit loop, and
	// every publish runs on its publisher.
	feed *construct.Feed

	// pending holds publishes that failed against the engine; they are
	// retried — re-synced against the KG's current state — at the next
	// publish point so a transient Engine.Publish error cannot leave the
	// serving stores permanently diverged from the KG. Only publishGroup
	// touches it: on the feed's publisher, and in Close after the feed has
	// stopped.
	pending []pendingPublish

	// publishHook, when set (tests only), runs before every engine publish
	// and can inject failures to exercise the retry path.
	publishHook func(source string) error

	// linkReplica is the log-derived link table: a FuncAgent replays every
	// op's Links/Unlinks into it, so after a CatchUp it is exactly the link
	// state at the agents' LSN — the consistent capture checkpoints embed.
	linkMu      sync.Mutex
	linkReplica map[triple.EntityID]triple.EntityID

	// Durability state (guarded by durMu). prevCkptLSN is the penultimate
	// durable checkpoint watermark — the compaction floor: the log prefix at
	// or below it may be rewritten, because every retained checkpoint is at
	// least that fresh and recovery never replays below its checkpoint.
	durMu        sync.Mutex
	durStats     DurabilityStats
	prevCkptLSN  uint64
	ckptEvery    int
	compactAfter int
	ckptBatches  int // published feed batches since the last periodic checkpoint

	// Background compactor. compactRunMu serializes compaction runs (the
	// goroutine and explicit Compact calls); compactMu guards the trigger
	// channel against send-on-closed during shutdown.
	compactRunMu   sync.Mutex
	compactMu      sync.Mutex
	compactTrig    chan uint64
	compactStopped bool
	compactDone    chan struct{}
}

// pendingPublish records a failed publish: the source, the KG entities whose
// store state may be stale, and the link-table keys whose log record was
// lost. A retry publishes the entities' *current* KG state (upsert if
// present, delete if gone) and re-resolves each link key through KG.Lookup,
// which is convergent no matter how many later commits touched them in
// between.
type pendingPublish struct {
	source   string
	ids      []triple.EntityID
	linkSrcs []triple.EntityID
}

// Open assembles a platform and recovers its state: with durable storage it
// restores the construction KG and every serving store from the latest
// checkpoint and replays only the operation-log suffix past the checkpoint's
// watermark, so cold-start time tracks the suffix length, not the log's age.
// A platform with no durable state opens empty. Close the platform when done;
// recovery is Open's job alone — nothing else replays the log implicitly.
func Open(opts Options) (_ *Platform, err error) {
	opts = opts.withDefaults()
	// opened holds every store that owns files, closed again if Open fails.
	var opened []io.Closer
	defer func() {
		if err != nil {
			for i := len(opened) - 1; i >= 0; i-- {
				err = errors.Join(err, opened[i].Close())
			}
		}
	}()
	var (
		log     = oplog.NewVolatile()
		staging = graphengine.NewObjectStore()
		ckpts   storage.Checkpointer
		kv      storage.EntityKV
		dir     = opts.Durability.Dir
	)
	switch opts.Storage.Backend {
	case "", "memory":
		kv = entitystore.NewMemKV()
	case "disk":
		if opts.Storage.DataDir == "" {
			return nil, fmt.Errorf("core: the disk backend needs Storage.DataDir")
		}
		dir = opts.Storage.DataDir
	default:
		return nil, fmt.Errorf("core: unknown storage backend %q (want \"memory\" or \"disk\")", opts.Storage.Backend)
	}
	if dir != "" {
		if log, staging, ckpts, err = openDurable(dir, &opened); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if kv == nil { // disk: the entity KV lives beside the durable layout
		if kv, err = disk.OpenEntityKV(filepath.Join(dir, "entities.dat")); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		opened = append(opened, kv)
	}
	p := &Platform{
		Ont:          opts.Ontology,
		KG:           construct.NewKG(),
		Engine:       graphengine.NewWithStaging(log, staging),
		EntityStore:  entitystore.NewWith(kv),
		GraphReplica: triple.NewGraph(),
		Curation:     live.NewQueue(),
		Checkpoints:  ckpts,
		snapshots:    make(map[string]ingest.Snapshot),
	}
	p.linkReplica = make(map[triple.EntityID]triple.EntityID)
	p.Engine.RegisterAgent(graphengine.EntityStoreAgent{Store: p.EntityStore})
	p.Engine.RegisterAgent(graphengine.GraphAgent{Graph: p.GraphReplica})
	p.Engine.RegisterAgent(graphengine.FuncAgent{AgentName: "link-table", Fn: p.applyLinkOp})

	// Recover before building the pipeline: the block index eagerly indexes
	// the KG at pipeline construction, so the KG must hold its restored state
	// first.
	if err = p.recover(); err != nil {
		return nil, err
	}

	p.Pipeline = construct.NewPipeline(p.KG, opts.Ontology)
	p.Pipeline.Link = opts.Construction.LinkParams
	p.Pipeline.Workers = opts.Construction.Workers
	p.Pipeline.EnableBlockIndex()
	p.ckptEvery = opts.Durability.CheckpointEvery
	p.compactAfter = opts.Durability.CompactAfter
	p.Live = live.NewStore()
	p.LiveConstructor = &live.Constructor{Store: p.Live}
	p.LiveEngine = kgq.NewEngine(p.Live)
	p.Intents = live.NewIntentHandler(p.Live, nil)

	p.compactTrig = make(chan uint64, 1)
	p.compactDone = make(chan struct{})
	go p.compactorLoop() //saga:longlived stopped by Close before the stores shut
	p.feed = construct.NewFeed(p.Pipeline, construct.FeedOptions{
		OnCommit: p.captureFeedBatch,
		Publish:  p.publishGroup,
	})
	return p, nil
}

// openDurable opens the one durable layout under dir: the segmented record
// log (dir/oplog), the segment staging store (dir/staging) and the checkpoint
// files (dir/checkpoints). Each store joins opened as soon as it is open, so
// Open's cleanup closes it if a later step fails.
func openDurable(dir string, opened *[]io.Closer) (*oplog.Log, graphengine.ObjectStore, storage.Checkpointer, error) {
	rec, err := disk.OpenRecordLog(filepath.Join(dir, "oplog"), 0)
	if err != nil {
		return nil, nil, nil, err
	}
	log, err := oplog.OpenStore(rec) // closes rec when it fails
	if err != nil {
		return nil, nil, nil, err
	}
	*opened = append(*opened, log)
	staging, err := disk.OpenSegmentBlobStore(filepath.Join(dir, "staging"), 0)
	if err != nil {
		return nil, nil, nil, err
	}
	*opened = append(*opened, staging)
	ckpts, err := disk.OpenCheckpoints(filepath.Join(dir, "checkpoints"))
	if err != nil {
		return nil, nil, nil, err
	}
	*opened = append(*opened, ckpts)
	return log, staging, ckpts, nil
}

// IngestSource runs a source's ingestion pipeline over a published data
// version (import → transform → align → delta) and consumes the delta into
// the KG. The per-source snapshot is kept so the next run diffs against it.
func (p *Platform) IngestSource(src *ingest.Source, data io.Reader) (construct.SourceStats, error) {
	res, err := src.Run(data, p.snapshots[src.Name], p.Ont)
	if err != nil {
		return construct.SourceStats{}, err
	}
	p.snapshots[src.Name] = res.Snapshot
	return p.ConsumeDelta(res.Delta)
}

// ConsumeDelta consumes one delta: ConsumeDeltas over a batch of one. When
// the delta never commits (a validation error, a closed feed) the stats still
// name its source.
func (p *Platform) ConsumeDelta(d ingest.Delta) (construct.SourceStats, error) {
	all, err := p.ConsumeDeltas([]ingest.Delta{d})
	if len(all) == 1 && all[0].Source != "" {
		return all[0], err
	}
	return construct.SourceStats{Source: d.Source}, err
}

// ConsumeDeltas consumes several sources as one batch: it submits the batch to
// the platform's standing feed and waits for its result, so the batch is
// committed, published, and replayed into every agent when the call returns.
// Every delta of the batch links against the KG state at batch start (that is
// what makes the batch deterministic), so two sources in one batch that
// describe the same real-world entity each mint their own KG entity — and
// resolution never merges two existing KG entities afterwards (≤1 graph
// entity per cluster). Batch only independent sources; consume related
// sources in separate calls so the later one links against the earlier one's
// output. For a continuously arriving stream of batches, submit to Feed
// without awaiting each result: the feed then overlaps one batch's publish
// tail with the next batch's construction.
//
// Error contract: a *construct.BatchError means the committed prefix (see
// that type) stayed applied — its effects are still published so the stores
// track the KG. A publish error does not lose data either: the failed ops are
// queued and re-synced from the KG at the next publish point, and agents are
// always caught up on whatever reached the log before this call returns.
// After the feed is closed the call returns construct.ErrFeedClosed and
// consumes nothing.
func (p *Platform) ConsumeDeltas(deltas []ingest.Delta) ([]construct.SourceStats, error) {
	res := <-p.feed.Submit(deltas)
	return res.Stats, res.Err
}

// linkKeysOf collects a commit's settled link-table keys (linked and
// unlinked), sorted for deterministic op encoding.
func linkKeysOf(stats construct.SourceStats) []triple.EntityID {
	if len(stats.Links) == 0 && len(stats.Unlinks) == 0 {
		return nil
	}
	keys := make([]triple.EntityID, 0, len(stats.Links)+len(stats.Unlinks))
	for src := range stats.Links {
		keys = append(keys, src)
	}
	keys = append(keys, stats.Unlinks...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// resolveLinks splits link-table keys into their current state: keys still
// linked (with their target) and keys gone. Resolution happens at publish
// time — like entity carry state — so retries and conflated groups always
// ship the table's latest truth, which is convergent however publishes and
// commits interleave.
func (p *Platform) resolveLinks(srcs []triple.EntityID) (links map[triple.EntityID]triple.EntityID, unlinks []triple.EntityID) {
	for _, src := range srcs {
		if tgt, ok := p.KG.Lookup(src); ok {
			if links == nil {
				links = make(map[triple.EntityID]triple.EntityID)
			}
			links[src] = tgt
		} else {
			unlinks = append(unlinks, src)
		}
	}
	return links, unlinks
}

// publishRaw is the platform's single gate onto the engine's publish path.
// Link deltas ride the ops: the log is the only durable record of the
// construction link table (entity payloads cannot reproduce it), so recovery
// replays Links/Unlinks alongside the payloads. On failure it queues the
// affected entity IDs and link keys for retry, so a transient engine error
// never leaves the stores permanently behind the KG: the next publish point
// re-syncs them from the KG's then-current state.
func (p *Platform) publishRaw(source string, upserts []*triple.Entity, removed []triple.EntityID, linkSrcs []triple.EntityID) error {
	var err error
	if p.publishHook != nil {
		err = p.publishHook(source)
	}
	links, unlinks := p.resolveLinks(linkSrcs)
	if err == nil && len(upserts) > 0 {
		kind := oplog.OpUpsert
		if source == live.CurationSource {
			kind = oplog.OpCuration // hot fixes keep their kind on retries too
		}
		_, err = p.Engine.PublishOp(oplog.Op{Kind: kind, Source: source, Links: links, Unlinks: unlinks}, upserts)
		links, unlinks = nil, nil // attached; don't repeat on the delete op
	}
	if err == nil && len(removed) > 0 {
		_, err = p.Engine.PublishOp(oplog.Op{Kind: oplog.OpDelete, Source: source, EntityIDs: removed, Links: links, Unlinks: unlinks}, nil)
		links, unlinks = nil, nil
	}
	if err == nil && (len(links) > 0 || len(unlinks) > 0) {
		// Links-only op: the commit settled link-table entries without any
		// unpublished entity state (or the entity ops conflated away).
		_, err = p.Engine.PublishOp(oplog.Op{Kind: oplog.OpUpsert, Source: source, Links: links, Unlinks: unlinks}, nil)
	}
	if err != nil {
		ids := make([]triple.EntityID, 0, len(upserts)+len(removed))
		for _, e := range upserts {
			ids = append(ids, e.ID)
		}
		ids = append(ids, removed...)
		p.pending = append(p.pending, pendingPublish{source: source, ids: ids, linkSrcs: linkSrcs})
	}
	return err
}

// flushPending retries publishes that previously failed. Each retry syncs the
// stores toward the KG's current state for the recorded entities — upsert the
// ones still present, delete the ones gone — which is idempotent and safe to
// interleave with any later successful publishes of the same entities. Still-
// failing retries re-queue themselves (inside publishRaw).
func (p *Platform) flushPending() error {
	pend := p.pending
	p.pending = nil
	var firstErr error
	for _, pp := range pend {
		var upserts []*triple.Entity
		var removed []triple.EntityID
		for _, id := range pp.ids {
			if e := p.KG.Graph.GetShared(id); e != nil {
				upserts = append(upserts, e)
			} else {
				removed = append(removed, id)
			}
		}
		if err := p.publishRaw(pp.source, upserts, removed, pp.linkSrcs); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// FeedOptions is Feed's argument. It has no fields: the platform's feed runs
// with construct's default queue depths.
type FeedOptions struct{}

// Feed returns the platform's standing ingestion feed, which Open started: a
// long-lived commit loop over the construction pipeline in which batch N+1's
// validation, KG-read snapshotting, and compute begin as soon as batch N's
// last commit (not its publish) finishes, while publishing to the Graph Engine
// runs on an ordered asynchronous publisher off the commit path. The KG it
// constructs is byte-identical to submitting and awaiting the same batches
// one at a time, which is what ConsumeDeltas does; the serving stores
// converge to the same state (a BatchResult with a nil Err means committed,
// published, and replayed into every agent).
//
// The feed is the platform's only write path: Checkpoint, RefreshServing,
// BuildNERD and ApplyCurationDecisions are barrier turns on it. Closing it
// ends the platform's writes — later writes fail with construct.ErrFeedClosed
// — while reads, RefreshServing and Close keep working. Close closes it if
// the caller has not.
func (p *Platform) Feed(FeedOptions) (*construct.Feed, error) {
	return p.feed, nil
}

// capturedOp is one delta's publish payload, captured on the feed's commit
// loop right after its batch commits.
// Capturing there (shared records — no clone, just pointer grabs) pins exactly
// the entity states the commit produced, so the publisher appends the same
// operations to the log no matter how far construction has advanced by the
// time the publish runs.
type capturedOp struct {
	source   string
	upserts  []*triple.Entity
	removed  []triple.EntityID
	linkSrcs []triple.EntityID
}

// barrierTurn is the payload of the barriers the platform submits to its
// feed. A barrier takes the next turn on both of the feed's ordered stages, so
// what it does falls strictly between the batches submitted before it and
// those submitted after: edit, when set, runs on the commit loop — the KG's
// only writer — and returns the ops its writes need published; the publisher
// publishes them like a batch's and, when checkpoint is set, takes a
// checkpoint after them and records its watermark in lsn.
type barrierTurn struct {
	edit       func() []capturedOp
	checkpoint bool
	ops        []capturedOp
	lsn        uint64
}

// turn submits t to the feed and waits until it has published: every batch
// submitted before it has then committed and published, failed publishes
// have been retried, and every agent is caught up. After the feed is closed
// it returns construct.ErrFeedClosed and t does not run.
func (p *Platform) turn(t *barrierTurn) error {
	return (<-p.feed.Barrier(t)).Err
}

// captureFeedBatch is the feed's OnCommit hook: it runs on the commit loop,
// in order, right after each batch's commits and at each barrier's turn. A
// batch's payload becomes its captured ops; a barrier runs its edit.
func (p *Platform) captureFeedBatch(b *construct.FeedBatch) {
	if b.Barrier {
		if t, ok := b.Payload.(*barrierTurn); ok && t.edit != nil {
			t.ops = t.edit()
		}
		return
	}
	ops := make([]capturedOp, 0, len(b.Stats))
	for i := range b.Stats {
		st := &b.Stats[i]
		linkSrcs := linkKeysOf(*st)
		if len(st.Touched) == 0 && len(st.Removed) == 0 && len(linkSrcs) == 0 {
			continue
		}
		op := capturedOp{source: st.Source, removed: st.Removed, linkSrcs: linkSrcs}
		for _, id := range st.Touched {
			if e := p.KG.Graph.GetShared(id); e != nil {
				op.upserts = append(op.upserts, e)
			}
		}
		ops = append(ops, op)
	}
	b.Payload = ops
}

// publishGroup is the platform's one publish routine and the feed's Publish
// hook: the feed's publisher hands it its whole backlog, in commit order, and
// is its only caller apart from Close, which calls it once after the feed has
// stopped. It retries any queued failed publishes, appends the group's
// captured operations — batches' and barrier edits' alike — to the log,
// catches every agent up, and takes the checkpoint a barrier asked for or the
// periodic cadence has come due for.
//
// Handing it the whole backlog enables conflation (group commit): an entity
// touched by several batches of the group is published once, at its final
// captured state, under the source that wrote it last. The stores converge to
// exactly the state per-batch publishing would have reached — captured
// records are immutable and the final state is the last batch's — while the
// log carries one operation per entity per drain instead of one per entity
// per batch. On an update-heavy stream this is what lets a publisher that
// falls behind catch back up instead of lagging forever.
func (p *Platform) publishGroup(group []*construct.FeedBatch) error {
	// Retry failures belong to the batch that first reported them; they stay
	// queued (flushPending re-queues what still fails) without failing this
	// group's results.
	_ = p.flushPending()

	// Flatten the group's captured ops into per-entity events, in capture
	// order, then keep only each entity's last event. Consecutive survivors
	// from the same source and kind collapse into one log operation, so op
	// granularity adapts to however the sources interleave.
	type event struct {
		source string
		id     triple.EntityID
		e      *triple.Entity // nil means delete
	}
	var evs []event
	linkBySrc := make(map[string]map[triple.EntityID]bool)
	published := 0
	var ckpts []*barrierTurn
	for _, b := range group {
		var ops []capturedOp
		switch pl := b.Payload.(type) {
		case []capturedOp:
			published++
			ops = pl
		case *barrierTurn:
			ops = pl.ops
			if pl.checkpoint {
				ckpts = append(ckpts, pl)
			}
		}
		for _, op := range ops {
			for _, e := range op.upserts {
				evs = append(evs, event{source: op.source, id: e.ID, e: e})
			}
			for _, id := range op.removed {
				evs = append(evs, event{source: op.source, id: id})
			}
			for _, src := range op.linkSrcs {
				set := linkBySrc[op.source]
				if set == nil {
					set = make(map[triple.EntityID]bool)
					linkBySrc[op.source] = set
				}
				set[src] = true
			}
		}
	}
	wantCkpt := p.checkpointDue(published) || len(ckpts) > 0
	last := make(map[triple.EntityID]int, len(evs))
	for i, ev := range evs {
		last[ev.id] = i
	}
	// takeLinks hands a source its conflated link-table keys, once: the keys
	// ride the source's first published op of the group (resolution happens at
	// publish time against the fully committed KG, so where in the group they
	// resolve cannot change the outcome).
	takeLinks := func(source string) []triple.EntityID {
		set := linkBySrc[source]
		delete(linkBySrc, source)
		if len(set) == 0 {
			return nil
		}
		srcs := make([]triple.EntityID, 0, len(set))
		for src := range set {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		return srcs
	}
	var firstErr error
	flush := func(source string, upserts []*triple.Entity, removed []triple.EntityID) {
		if len(upserts) == 0 && len(removed) == 0 {
			return
		}
		if err := p.publishRaw(source, upserts, removed, takeLinks(source)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var (
		runSource  string
		runUpserts []*triple.Entity
		runRemoved []triple.EntityID
	)
	for i, ev := range evs {
		if last[ev.id] != i {
			continue // a later batch republished or deleted this entity
		}
		if ev.source != runSource {
			flush(runSource, runUpserts, runRemoved)
			runSource, runUpserts, runRemoved = ev.source, nil, nil
		}
		if ev.e != nil {
			runUpserts = append(runUpserts, ev.e)
		} else {
			runRemoved = append(runRemoved, ev.id)
		}
	}
	flush(runSource, runUpserts, runRemoved)
	// A source whose entity events all conflated away still owes its link
	// deltas: they ride a links-only op, one per source, in source order.
	if len(linkBySrc) > 0 {
		rest := make([]string, 0, len(linkBySrc))
		for source := range linkBySrc {
			rest = append(rest, source)
		}
		sort.Strings(rest)
		for _, source := range rest {
			if err := p.publishRaw(source, nil, nil, takeLinks(source)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := p.Engine.CatchUp(); err != nil && firstErr == nil {
		firstErr = err
	}
	if wantCkpt {
		w, err := p.runCheckpoint()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for _, t := range ckpts {
			t.lsn = w
		}
	}
	return firstErr
}

// Close shuts the platform down, in dependency order: the standing feed is
// closed and its backlog published, queued failed publishes are retried, the
// background compactor is stopped and waited for, and only then do the
// operation log, staging store, checkpoint store, and entity store release
// their storage backends (for durable backends that also syncs and closes
// their files) — so no compaction or publish can race a closing store, and a
// clean Close leaves no orphaned segments behind. Close is not safe
// concurrently with other platform calls; the platform is unusable
// afterwards. Reopen with Open to recover.
func (p *Platform) Close() error {
	var firstErr error
	// The feed's error is its last failed batch's, which that batch's result
	// already reported.
	_ = p.feed.Close()
	// The publisher has stopped; one last, empty publish group retries
	// queued failed publishes before the log closes.
	_ = p.publishGroup(nil) //saga:errok a publish still failing at shutdown has no later publish point
	p.stopCompactor()
	if p.Checkpoints != nil {
		if err := p.Checkpoints.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := p.Engine.Log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.Engine.Staging.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.EntityStore.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Checkpoint publishes a construction checkpoint — durably snapshotting the
// KG when the platform has a checkpoint store — and returns its watermark. It
// is a barrier turn on the feed: the checkpoint covers every batch submitted
// before the call and never stalls the commit loop.
func (p *Platform) Checkpoint() (uint64, error) {
	t := &barrierTurn{checkpoint: true}
	err := p.turn(t)
	return t.lsn, err
}

// RefreshServing pushes the stable KG into the live store (the stable view
// the live KG unions with streaming sources) with importance-based boosts,
// and points live mention resolution plus the intent handler at NERD when
// built. It first takes a barrier turn on the feed, which retries queued
// failed publishes, so the stable view includes every batch submitted before
// this call (best-effort: a still-failing engine leaves the replica at its
// last converged state). The refreshed view is published before the call
// returns, so a serving read that starts afterwards sees it: live.Store.Serving
// would otherwise reuse the previous snapshot for up to its staleness bound.
func (p *Platform) RefreshServing() {
	_ = p.turn(&barrierTurn{}) // a closed feed has nothing more to publish
	scores := importance.Compute(p.GraphReplica, importance.Options{})
	boosts := make(map[triple.EntityID]float64, len(scores))
	var stable []*triple.Entity
	// Shared records suffice: the live store clones on Put, so the stable
	// view loads without an extra copy of the whole KG.
	p.GraphReplica.RangeShared(func(e *triple.Entity) bool {
		stable = append(stable, e)
		return true
	})
	for id, s := range scores {
		boosts[id] = s.Importance
	}
	p.LiveConstructor.LoadStableView(stable, boosts)
	p.Live.Current()
}

// BuildNERD materializes the NERD Entity View over the replica, once every
// batch submitted before the call has published, and wires the stack into
// object resolution (construction), live mention resolution, and intent
// argument resolution. The replica snapshot it reads is copy-on-write, so
// rebuilding NERD on a large KG neither deep-copies the graph nor blocks
// replica writes for the duration. The pipeline reads its resolver on the
// commit loop, so the swap is a barrier turn there: batches submitted before
// the call resolve with the alias resolver, batches submitted after it
// returns with NERD.
func (p *Platform) BuildNERD() *nerd.NERD {
	_ = p.turn(&barrierTurn{}) // a closed feed has nothing more to publish
	scores := importance.Compute(p.GraphReplica, importance.Options{})
	view := nerd.BuildEntityView(p.GraphReplica.Snapshot(), scores)
	n := nerd.New(view, nerd.NewModel(nil))
	_ = p.turn(&barrierTurn{edit: func() []capturedOp { // a closed feed commits nothing more
		p.Pipeline.Resolver = n
		return nil
	}})
	p.NERD = n
	p.LiveConstructor.Resolver = n
	p.Intents.Resolver = n
	return n
}

// Query executes a KGQ query against the live engine: the text compiles
// once through the engine's plan cache (Parse → Plan), then the plan runs
// against the current store snapshot with per-version result caching.
func (p *Platform) Query(text string) (kgq.Result, error) {
	plan, err := p.LiveEngine.PlanText(text)
	if err != nil {
		return kgq.Result{}, err
	}
	return p.LiveEngine.Execute(plan)
}

// ApplyCurationDecisions feeds the live queue's curation decisions to the
// stable KG as the curation streaming source (§4.3): edits become updated
// facts, blocks become deletions of the offending fact's source attribution.
// It is a barrier turn on the feed: the decisions are drained and applied on
// the commit loop, after every batch submitted before the call and before
// every batch submitted after it, and their hot fixes publish at that place
// in the order, like a batch's — so no batch captured before an edit
// publishes after it. A failed publish is queued and re-synced from the KG at
// the next publish point, and the returned error reports it. After the feed
// is closed it returns construct.ErrFeedClosed and the decisions stay queued.
func (p *Platform) ApplyCurationDecisions() (int, error) {
	n := 0
	err := p.turn(&barrierTurn{edit: func() []capturedOp {
		decisions := p.Curation.DrainDecisions()
		n = len(decisions)
		ops := make([]capturedOp, 0, len(decisions))
		for _, d := range decisions {
			switch d.Kind {
			case live.DecisionEdit:
				p.KG.Graph.Update(d.Entity, func(e *triple.Entity) {
					for i, t := range e.Triples {
						if t.Key() == d.Fact.Key() {
							e.Triples[i].Object = d.NewValue
							e.Triples[i].Sources = []string{live.CurationSource}
							e.Triples[i].Trust = []float64{1}
						}
					}
				})
			case live.DecisionBlock:
				p.KG.Graph.Update(d.Entity, func(e *triple.Entity) {
					kept := e.Triples[:0]
					for _, t := range e.Triples {
						if t.Key() != d.Fact.Key() {
							kept = append(kept, t)
						}
					}
					e.Triples = kept
				})
			case live.DecisionBlockEntity:
				p.KG.Graph.Delete(d.Entity)
			}
			// Curation writes bypass the construction pipeline, so report the
			// touched entity to the pipeline's KG-derived caches (block index,
			// alias-resolver cache) ourselves.
			p.Pipeline.RefreshKGCaches(d.Entity)
			op := capturedOp{source: live.CurationSource}
			if d.Kind == live.DecisionBlockEntity {
				op.removed = []triple.EntityID{d.Entity}
			} else if e := p.KG.Graph.GetShared(d.Entity); e != nil {
				op.upserts = []*triple.Entity{e}
			}
			ops = append(ops, op)
		}
		return ops
	}})
	return n, err
}

// DrainConflicts returns and clears the construction pipeline's accumulated
// fusion conflicts.
func (p *Platform) DrainConflicts() []construct.Conflict {
	return p.Pipeline.DrainConflicts()
}

// Stats summarizes the platform state.
type Stats struct {
	Graph        triple.Stats
	Links        int
	LogLSN       uint64
	LiveEntities int
	// BlockIndex reports the incremental linking index.
	BlockIndex construct.BlockIndexStats
	// Fusion reports the commit phase's fusion traffic; Payloads/Targets is
	// the per-target batching amortization.
	Fusion construct.FusionStats
}

// Stats gathers platform statistics.
func (p *Platform) Stats() Stats {
	return Stats{
		Graph:        p.KG.Graph.Stats(),
		Links:        p.KG.LinkCount(),
		LogLSN:       p.Engine.Log.LastLSN(),
		LiveEntities: p.Live.Len(),
		BlockIndex:   p.Pipeline.BlockIndexStats(),
		Fusion:       p.Pipeline.FusionStats(),
	}
}
