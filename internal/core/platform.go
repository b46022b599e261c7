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
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
	"saga/internal/pmap"
	"saga/internal/storage"
	"saga/internal/storage/disk"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

// StorageOptions selects the storage medium for the platform's stores
// (entity KV, record log).
type StorageOptions struct {
	// Backend is "memory" (or empty) or "disk". The memory backend keeps
	// the entity KV in memory, and the log (payloads included) too unless
	// DurabilityOptions.Dir makes it durable. The disk backend keeps both
	// under DataDir.
	Backend string
	// DataDir roots the disk backend's files: the durable layout of
	// DurabilityOptions.Dir plus the entity KV (DataDir/entities.dat, which
	// Open rebuilds from the log). Required by disk; ignored by memory.
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

// DurabilityOptions configures crash recovery: where the durable log lives
// when the store backend itself is volatile, and the checkpoint cadence.
type DurabilityOptions struct {
	// Dir, with the memory backend, roots the durable layout — a segmented
	// operation log whose records carry each op's entity payload
	// (Dir/oplog) — while the serving stores stay volatile: the hybrid
	// deployment where only replayable state survives a restart. Each
	// publish group is one record and one fsync, and the log alone is the
	// state. The disk backend opens the same layout under Storage.DataDir
	// and ignores Dir. A tree written before payloads rode in the log fails
	// Open, naming the record format, and is left as it is.
	Dir string
	// CheckpointEvery takes a checkpoint every N published batches, on the
	// feed's publisher after a group's ops, so it never stalls the commit
	// loop: the log is compacted to one base op holding the state at its
	// head, and recovery replays that op and at most N batches' groups.
	// 0 disables periodic checkpoints; explicit Checkpoint calls still work.
	CheckpointEvery int
	// CompactAfter has no effect: a checkpoint compacts the log. It stays
	// because the benchmark's platform layer sets it.
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
	// Durability configures crash recovery and checkpoints.
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

	snapshots map[string]ingest.Snapshot

	// feed is the platform's one standing feed, open from Open to Close:
	// every KG write is a batch or a barrier turn on its commit loop, and
	// every publish runs on its publisher.
	feed *construct.Feed

	// pending holds what failed publishes left behind; the next publish
	// group re-syncs it against the KG's current state, in its one op, so a
	// transient Engine.Publish error cannot leave the serving stores
	// permanently diverged from the KG. Only publishGroup touches it: on the
	// feed's publisher, and in Close after the feed has stopped.
	pending pendingPublish

	// publishHook, when set (tests only), runs before every engine publish
	// and can inject failures to exercise the retry path.
	publishHook func() error

	// linkReplica is the log-derived link table: a FuncAgent replays every
	// op's Links/Unlinks into it, so after a CatchUp it is exactly the link
	// state at the agents' LSN — the table a checkpoint's base carries,
	// handed over as it is (writes then move to a fresh owner).
	linkMu      sync.Mutex
	linkOwner   *pmap.Owner
	linkReplica pmap.Map[triple.EntityID, triple.EntityID]

	// Durability state (guarded by durMu).
	durMu       sync.Mutex
	durStats    DurabilityStats
	ckptEvery   int
	ckptBatches int // published feed batches since the last periodic checkpoint
}

// pendingPublish records failed publishes: the KG entities whose store state
// may be stale, and the link-table keys whose log record was lost. A retry
// publishes the entities' *current* KG state (see syncOp) and re-resolves
// each link key through KG.Lookup, which is convergent no matter how many
// later commits touched them in between.
type pendingPublish struct {
	ids      []triple.EntityID
	linkSrcs []triple.EntityID
}

// Open assembles a platform and recovers its state: with durable storage it
// replays the operation log from genesis into the construction KG and every
// serving store — the base op the last checkpoint left, then the ops
// appended since — so cold-start time tracks the state and the suffix since
// the last checkpoint, not the log's age.
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
		log = oplog.NewVolatile()
		kv  storage.EntityKV
		dir = opts.Durability.Dir
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
	if dir != "" { // the one durable layout: dir/oplog
		rec, err := disk.OpenRecordLog(filepath.Join(dir, "oplog"), 0)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if log, err = oplog.OpenStore(rec); err != nil { // closes rec when it fails
			return nil, fmt.Errorf("core: %w", err)
		}
		opened = append(opened, log)
	}
	if kv == nil { // disk: the entity KV lives beside the durable layout
		// It starts empty: recovery re-derives every entry from the log.
		path := filepath.Join(dir, "entities.dat")
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("core: %w", err)
		}
		if kv, err = disk.OpenEntityKV(path); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		opened = append(opened, kv)
	}
	p := &Platform{
		Ont:          opts.Ontology,
		KG:           construct.NewKG(),
		Engine:       graphengine.New(log),
		EntityStore:  entitystore.NewWith(kv),
		GraphReplica: triple.NewGraph(),
		Curation:     live.NewQueue(),
		snapshots:    make(map[string]ingest.Snapshot),
	}
	p.durStats.Durable = dir != ""
	p.linkOwner = new(pmap.Owner)
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
	p.Live = live.NewStore()
	p.LiveConstructor = &live.Constructor{Store: p.Live}
	p.LiveEngine = kgq.NewEngine(p.Live)
	p.Intents = live.NewIntentHandler(p.Live, nil)

	p.feed = construct.NewFeed(p.Pipeline, construct.FeedOptions{
		OnCommit: p.captureFeedBatch,
		Publish:  p.publishGroup,
	})
	return p, nil
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

// publishRaw is the platform's single gate onto the engine's publish path:
// it appends one op carrying the upserts' payload, the removals as Deletes
// and the link keys' current state, or nothing when all three are empty.
// Link deltas ride the op: the log is the only durable record of the
// construction link table (entity payloads cannot reproduce it), so recovery
// replays Links/Unlinks alongside the payloads. On failure it queues the
// affected entity IDs and link keys for retry, so a transient engine error
// never leaves the stores permanently behind the KG: the next publish group
// re-syncs them from the KG's then-current state.
func (p *Platform) publishRaw(upserts []*triple.Entity, removed, linkSrcs []triple.EntityID) error {
	if len(upserts) == 0 && len(removed) == 0 && len(linkSrcs) == 0 {
		return nil
	}
	var err error
	if p.publishHook != nil {
		err = p.publishHook()
	}
	if err == nil {
		links, unlinks := p.resolveLinks(linkSrcs)
		_, err = p.Engine.PublishOp(oplog.Op{Kind: oplog.OpUpsert, Deletes: removed, Links: links, Unlinks: unlinks}, upserts)
	}
	if err != nil {
		for _, e := range upserts {
			p.pending.ids = append(p.pending.ids, e.ID)
		}
		p.pending.ids = append(p.pending.ids, removed...)
		p.pending.linkSrcs = append(p.pending.linkSrcs, linkSrcs...)
	}
	return err
}

// syncOp captures the KG's current state of ids as an op: the record of each
// entity still present, a removal for each one gone. It is how every publish
// point resolves the entities it covers — a batch's and a curation barrier's
// right after their writes, failed publishes' at the next group — so an op
// never disagrees with the KG it was captured from, however the writes that
// touched an entity were ordered.
func (p *Platform) syncOp(ids, linkSrcs []triple.EntityID) capturedOp {
	op := capturedOp{linkSrcs: linkSrcs}
	for _, id := range ids {
		if e := p.KG.Graph.GetShared(id); e != nil {
			op.upserts = append(op.upserts, e)
		} else {
			op.removed = append(op.removed, id)
		}
	}
	return op
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

// capturedOp is one batch's publish payload, captured on the feed's commit
// loop right after the batch commits: the records of the entities its deltas
// touched or removed that the KG still holds, removals for those it does not,
// and the link-table keys they settled.
// Capturing there (shared records — no clone, just pointer grabs) pins exactly
// the entity states the commit produced, so the publisher appends the same
// operation to the log no matter how far construction has advanced by the
// time the publish runs.
type capturedOp struct {
	upserts  []*triple.Entity
	removed  []triple.EntityID
	linkSrcs []triple.EntityID
}

// barrierTurn is the payload of the barriers the platform submits to its
// feed. A barrier takes the next turn on both of the feed's ordered stages, so
// what it does falls strictly between the batches submitted before it and
// those submitted after: edit, when set, runs on the commit loop — the KG's
// only writer — and returns what its writes need published; the publisher
// publishes it like a batch's and, when checkpoint is set, takes a
// checkpoint after it and records its watermark in lsn.
type barrierTurn struct {
	edit       func() capturedOp
	checkpoint bool
	op         capturedOp
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
// batch's payload becomes its captured op; a barrier runs its edit.
func (p *Platform) captureFeedBatch(b *construct.FeedBatch) {
	if b.Barrier {
		if t, ok := b.Payload.(*barrierTurn); ok && t.edit != nil {
			t.op = t.edit()
		}
		return
	}
	// A batch's deltas each link against the KG as it stood at batch start,
	// so one delta can remove an entity a later delta re-creates: only the
	// KG's state after the whole batch says which way it went.
	var ids, linkSrcs []triple.EntityID
	for _, st := range b.Stats {
		ids = append(append(ids, st.Touched...), st.Removed...)
		linkSrcs = slices.AppendSeq(append(linkSrcs, st.Unlinks...), maps.Keys(st.Links))
	}
	b.Payload = p.syncOp(ids, linkSrcs)
}

// publishGroup is the platform's one publish routine and the feed's Publish
// hook: the feed's publisher hands it its whole backlog, in commit order, and
// is its only caller apart from Close, which calls it once after the feed has
// stopped. It appends what failed publishes left pending, re-synced from the
// KG, and the group's captured operations — batches' and barrier edits'
// alike — to the log as one op, catches every agent up, and takes the
// checkpoint a barrier asked for or the periodic cadence has come due for.
//
// Handing it the whole backlog enables conflation (group commit): an entity
// touched by several batches of the group is published once, at its final
// captured state. The stores converge to exactly the state per-batch
// publishing would have reached — captured records are immutable and the
// final state is the last batch's — while the log carries one operation per
// drain, holding each entity once, instead of one per batch. On an
// update-heavy stream this is what lets a publisher that falls behind catch
// back up instead of lagging forever.
func (p *Platform) publishGroup(group []*construct.FeedBatch) error {
	// Flatten the pending re-sync and the group's captured ops into
	// per-entity events, in that order, then keep only each entity's last
	// event, in its place: a batch's captured state is the one that belongs
	// at the group's place in the log, and any newer state the pending
	// re-sync read reaches the log again with a later group. The
	// group's link keys are resolved once, at publish time against the fully
	// committed KG, so which batch settled a key cannot change the outcome.
	type event struct {
		id triple.EntityID
		e  *triple.Entity // nil means delete
	}
	var evs []event
	linkKeys := make(map[triple.EntityID]bool)
	published := 0
	var ckpts []*barrierTurn
	ops := []capturedOp{p.syncOp(p.pending.ids, p.pending.linkSrcs)}
	p.pending = pendingPublish{}
	for _, b := range group {
		switch pl := b.Payload.(type) {
		case capturedOp:
			published++
			ops = append(ops, pl)
		case *barrierTurn:
			ops = append(ops, pl.op)
			if pl.checkpoint {
				ckpts = append(ckpts, pl)
			}
		}
	}
	for _, op := range ops {
		for _, e := range op.upserts {
			evs = append(evs, event{e.ID, e})
		}
		for _, id := range op.removed {
			evs = append(evs, event{id: id})
		}
		for _, src := range op.linkSrcs {
			linkKeys[src] = true
		}
	}
	wantCkpt := p.checkpointDue(published) || len(ckpts) > 0
	last := make(map[triple.EntityID]int, len(evs))
	for i, ev := range evs {
		last[ev.id] = i
	}
	var (
		upserts []*triple.Entity
		removed []triple.EntityID
	)
	for i, ev := range evs {
		switch {
		case last[ev.id] != i: // a later batch republished or deleted this entity
		case ev.e != nil:
			upserts = append(upserts, ev.e)
		default:
			removed = append(removed, ev.id)
		}
	}
	linkSrcs := slices.Sorted(maps.Keys(linkKeys))
	firstErr := p.publishRaw(upserts, removed, linkSrcs)
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
// closed and its backlog published, queued failed publishes are retried, and
// only then do the operation log and entity store release their storage
// backends (for durable backends that also syncs and closes their files) —
// so no checkpoint or publish can race a closing store, and a clean Close
// leaves no orphaned segments behind. Close is not safe
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
	if err := p.Engine.Log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.EntityStore.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Checkpoint takes a checkpoint — it compacts the operation log to one base
// op holding the state at its head, durably when the log is — and returns
// its watermark. It is a barrier turn on the feed: the checkpoint covers
// every batch submitted before the call and never stalls the commit loop.
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
	// The live store holds the replica's frozen records as they are, so the
	// load writes only the records and boosts that changed since the last.
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
	_ = p.turn(&barrierTurn{edit: func() capturedOp { // a closed feed commits nothing more
		p.Pipeline.Resolver = n
		return capturedOp{}
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
	err := p.turn(&barrierTurn{edit: func() capturedOp {
		decisions := p.Curation.DrainDecisions()
		var ids []triple.EntityID
		n = len(decisions)
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
			ids = append(ids, d.Entity)
		}
		// An edit after a block re-creates the entity, so only the state
		// after every decision says whether it is published or removed.
		return p.syncOp(ids, nil)
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
		LiveEntities: p.Live.Current().Len(),
		BlockIndex:   p.Pipeline.BlockIndexStats(),
		Fusion:       p.Pipeline.FusionStats(),
	}
}
