package construct

import (
	"errors"
	"sync"

	"saga/internal/ingest"
)

// This file implements the standing ingestion feed: the cross-batch
// pipelining layer over one Pipeline. A Consume call is one batch with a
// built-in barrier at each end — the caller cannot start batch N+1 until
// batch N returns, and the platform's synchronous publish sat on that same
// critical path. The Feed removes both barriers for a continuously ingesting
// platform: batch N+1's validation runs at submission time (while batch N is
// still committing), its KG-read snapshot and compute start as soon as batch
// N's last commit finishes, and publishing runs on a separate ordered
// publisher stage with bounded backpressure, off the commit path entirely.
//
// Ordering and identity contract: batches commit in submission order, deltas
// within a batch commit in input order, and every graph write happens on the
// single commit loop — so a feed over batches B1..Bk constructs a KG
// byte-identical to back-to-back Consume(B1)..Consume(Bk) calls. The publish
// stage receives batches in that same order.

// ErrFeedClosed is returned for batches submitted after Close.
var ErrFeedClosed = errors.New("construct: feed closed")

// Default queue depths: enough to keep the loops busy across a publish
// hiccup without letting an unbounded backlog hide a stalled consumer.
const (
	// DefaultFeedQueue bounds batches accepted but not yet committing;
	// Submit blocks — backpressure — when it is full.
	DefaultFeedQueue = 4
	// DefaultFeedPublishQueue bounds committed batches awaiting publish;
	// the commit loop stalls when it is full, so a slow or failing
	// publisher backpressures ingestion instead of accumulating unpublished
	// state without limit.
	DefaultFeedPublishQueue = 4
)

// BatchResult is the terminal outcome of one submitted batch, delivered on
// the channel Submit returned once the batch has both committed and — when
// the feed has a publish stage — published. Err nil therefore means the
// batch's effects are in the KG and the publish stage accepted them.
type BatchResult struct {
	// Seq is the batch's submission sequence number (1-based).
	Seq uint64
	// Stats holds one entry per input delta. On a *BatchError only the
	// committed prefix is filled (see the partial-prefix contract on
	// Consume); on a validation error all entries are zero.
	Stats []SourceStats
	// Err is the batch's first error: validation, commit (*BatchError), or
	// publish. A failed batch never stops the feed — later batches commit.
	Err error
}

// FeedBatch is one batch flowing through the feed's stages. The OnCommit
// hook may attach a Payload (for example, captured publish state) that the
// Publish hook consumes; the feed itself never reads it.
type FeedBatch struct {
	Seq    uint64
	Deltas []ingest.Delta
	// Stats is filled by the commit stage (prefix-only on a commit error).
	Stats []SourceStats
	// Payload carries OnCommit-to-Publish state through the publish queue.
	Payload any
	// Barrier marks a batch injected by Feed.Barrier: it carries no deltas
	// and commits nothing, but takes a turn through both ordered stages like
	// any other batch. OnCommit and Publish see it in sequence position, so a
	// barrier's Payload captures or changes commit-loop state strictly
	// between two real batches (the platform's checkpoints, drains and
	// curation edits ride these).
	Barrier bool
}

// FeedOptions configures a standing feed.
type FeedOptions struct {
	// Queue bounds submitted-but-not-committing batches (default
	// DefaultFeedQueue); Submit blocks while full.
	Queue int
	// PublishQueue bounds committed batches awaiting the publish stage
	// (default DefaultFeedPublishQueue); the commit loop stalls while full.
	PublishQueue int
	// OnCommit, when set, runs on the commit loop immediately after a
	// batch's commits finish (even a partial prefix — its committed effects
	// still need publishing), before the next batch begins. Use it to
	// capture commit-time state for the publish stage; keep it cheap, it is
	// on the critical path.
	OnCommit func(*FeedBatch)
	// Publish, when set, runs on the publisher goroutine, off the commit
	// path. Each call receives a group: the oldest committed batch plus
	// every younger batch already waiting in the publish queue, in commit
	// order. Handing the publisher its whole backlog at once is what
	// enables group commit and update conflation — when publishing falls
	// behind ingestion, the publisher can ship each entity's final state
	// once instead of once per batch. An error lands in every grouped
	// batch's BatchResult; the feed keeps running either way.
	Publish func(group []*FeedBatch) error
}

// FeedStats counts a feed's batch traffic.
type FeedStats struct {
	Submitted int // batches accepted by Submit (fast-path batches included)
	Committed int // batches whose every delta committed
	Published int // batches whose publish stage succeeded
	Failed    int // batches whose result carried an error
	// PublishGroups counts publisher invocations; Published/PublishGroups
	// is the group-commit amortization the publisher achieved (1.0 means
	// it always kept up and never coalesced a backlog).
	PublishGroups int
}

// feedItem pairs a batch with its result channel through the stage queues.
type feedItem struct {
	batch  *FeedBatch
	result chan BatchResult
	err    error // commit-stage error, joined with the publish error at the end
}

// Feed is a standing ingestion loop over one Pipeline. Callers Submit
// batches and receive a result channel per batch; internally a commit loop
// consumes batches in submission order (batch N+1's snapshot and compute
// start the moment batch N's last commit lands) and hands committed batches
// to an ordered publisher stage. Create with NewFeed; Submit is safe for
// concurrent use.
//
// The feed owns its Pipeline's write path while open: callers must not run
// Consume/ConsumeDelta on the same pipeline concurrently with an open feed.
// The platform layer enforces this by construction: its one feed is open
// from Open to Close, every platform write is a batch or a Barrier turn on
// it, and nothing in the platform calls Consume.
type Feed struct {
	p    *Pipeline
	opts FeedOptions

	// submitMu serializes Submit so sequence numbers, commit order, and
	// queue order agree even under concurrent submitters.
	submitMu sync.Mutex

	commitQ  chan *feedItem
	publishQ chan *feedItem
	done     chan struct{} // closed when the publisher loop exits

	mu   sync.Mutex
	cond *sync.Cond
	seq  uint64
	// lastQueued is the seq of the newest batch handed to the commit loop;
	// settledSeq the seq of the newest such batch whose result has been
	// delivered. Queued batches settle in seq order (both loops are FIFO)
	// and fast-path batches settle synchronously inside Submit, so
	// settledSeq >= s means every batch with seq <= s has fully settled.
	lastQueued uint64
	settledSeq uint64
	closed     bool
	lastErr    error
	stats      FeedStats
}

// NewFeed starts a standing feed over the pipeline. Close it when done; an
// abandoned feed leaks its two stage goroutines.
func NewFeed(p *Pipeline, opts FeedOptions) *Feed {
	if opts.Queue <= 0 {
		opts.Queue = DefaultFeedQueue
	}
	if opts.PublishQueue <= 0 {
		opts.PublishQueue = DefaultFeedPublishQueue
	}
	f := &Feed{
		p:        p,
		opts:     opts,
		commitQ:  make(chan *feedItem, opts.Queue),
		publishQ: make(chan *feedItem, opts.PublishQueue),
		done:     make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	//saga:longlived the feed's two pipeline stages live until Close drains them
	go f.commitLoop()
	go f.publishLoop() //saga:longlived see above
	return f
}

// Submit hands a batch to the feed and returns a 1-buffered channel that
// receives the batch's BatchResult exactly once; callers may ignore it.
// Validation runs here, before the batch's turn in the commit loop — so a
// bad batch fails fast, commits nothing, and never occupies queue space —
// as does the empty-batch fast path (nothing to commit or publish). Submit
// blocks while the commit queue is full: that is the feed's ingestion
// backpressure.
func (f *Feed) Submit(deltas []ingest.Delta) <-chan BatchResult {
	res := make(chan BatchResult, 1)
	// Validation is pure and KG-independent, so it runs before taking any
	// feed lock — concurrent with whatever batch is committing right now.
	var verr error
	for i := range deltas {
		if err := f.p.validateDelta(deltas[i]); err != nil {
			verr = err
			break
		}
	}
	f.submitMu.Lock()
	defer f.submitMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		res <- BatchResult{Err: ErrFeedClosed}
		return res
	}
	f.seq++
	seq := f.seq
	f.stats.Submitted++
	if verr != nil || len(deltas) == 0 {
		// Fast path: resolve without entering the loops. A batch that fails
		// validation commits nothing; an empty batch has no effects.
		if verr != nil {
			f.stats.Failed++
			f.lastErr = verr
		} else {
			f.stats.Committed++
			f.stats.Published++
		}
		f.mu.Unlock()
		res <- BatchResult{Seq: seq, Stats: make([]SourceStats, len(deltas)), Err: verr}
		return res
	}
	f.lastQueued = seq
	f.mu.Unlock()
	// Blocking send under submitMu only: backpressure stalls submitters,
	// never the commit loop, the publisher, or Drain.
	f.commitQ <- &feedItem{batch: &FeedBatch{Seq: seq, Deltas: deltas}, result: res}
	return res
}

// Barrier injects a delta-less batch that flows through both ordered stages
// without committing anything: it deliberately bypasses Submit's empty-batch
// fast path so that OnCommit runs for it on the commit loop (after every
// earlier batch's commits, before every later batch's) and the publish stage
// receives it at its sequence position. The payload seeds FeedBatch.Payload
// for those hooks. Like Submit, Barrier blocks while the commit queue is
// full and resolves with ErrFeedClosed after Close.
func (f *Feed) Barrier(payload any) <-chan BatchResult {
	res := make(chan BatchResult, 1)
	f.submitMu.Lock()
	defer f.submitMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		res <- BatchResult{Err: ErrFeedClosed}
		return res
	}
	f.seq++
	seq := f.seq
	f.stats.Submitted++
	f.lastQueued = seq
	f.mu.Unlock()
	f.commitQ <- &feedItem{batch: &FeedBatch{Seq: seq, Barrier: true, Payload: payload}, result: res}
	return res
}

// commitLoop is the standing commit loop: one batch at a time, in submission
// order. Batch N+1's snapshot and compute begin the moment this loop hands
// batch N to the publish queue — i.e. right after N's last commit (and its
// OnCommit capture), not its publish.
func (f *Feed) commitLoop() {
	defer close(f.publishQ)
	for item := range f.commitQ {
		f.runBatch(item)
		f.publishQ <- item
	}
}

// runBatch drives one batch through the pipeline's commit stages. Submit
// already validated the batch, so this enters past the validation pass, and
// every error — necessarily a commit failure — arrives typed as *BatchError.
func (f *Feed) runBatch(item *feedItem) {
	if !item.batch.Barrier {
		item.batch.Stats, item.err = f.p.consumeValidated(item.batch.Deltas)
	}
	if f.opts.OnCommit != nil {
		// Even after a mid-batch error: the committed prefix's effects are
		// in the KG and must reach the publish stage.
		f.opts.OnCommit(item.batch)
	}
}

// publishLoop drains committed batches into the publish stage in commit
// order and delivers each batch's result. It is greedy: after receiving the
// oldest committed batch it takes every younger batch already queued and
// publishes the whole group in one call, so a publisher that falls behind
// ingestion amortizes (and, at the core layer, conflates) its backlog
// instead of paying the full publish cost per batch.
func (f *Feed) publishLoop() {
	defer close(f.done)
	for item := range f.publishQ {
		items := []*feedItem{item}
	drain:
		for {
			select {
			case more, ok := <-f.publishQ:
				if !ok {
					// Queue closed: publish what we have, then exit via the
					// outer range (which sees the closed channel).
					break drain
				}
				items = append(items, more)
			default:
				break drain
			}
		}
		var perr error
		if f.opts.Publish != nil {
			group := make([]*FeedBatch, len(items))
			for i, it := range items {
				group[i] = it.batch
			}
			perr = f.opts.Publish(group)
		}
		f.mu.Lock()
		f.stats.PublishGroups++
		f.mu.Unlock()
		for _, it := range items {
			err := it.err
			if err == nil {
				err = perr
			}
			it.result <- BatchResult{Seq: it.batch.Seq, Stats: it.batch.Stats, Err: err}
			f.mu.Lock()
			if it.err == nil {
				f.stats.Committed++
			}
			if perr == nil {
				f.stats.Published++
			}
			if err != nil {
				f.stats.Failed++
				f.lastErr = err
			}
			f.settledSeq = it.batch.Seq
			f.cond.Broadcast()
			f.mu.Unlock()
		}
	}
}

// Drain blocks until every batch submitted before the call has fully
// settled — committed and published (or failed) — and returns the feed's
// sticky last error (nil if no batch has failed). The wait is a snapshot:
// batches submitted while Drain waits are not covered, so steady ingestion
// cannot starve a drain (serving-side refreshes stay live under load).
// After Drain the pipeline's KG, its derived caches, and the publish stage
// agree on every batch it covered.
func (f *Feed) Drain() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	target := f.lastQueued
	for f.settledSeq < target {
		f.cond.Wait()
	}
	return f.lastErr
}

// Close stops accepting batches, waits for every submitted batch to commit
// and publish, stops both stage goroutines, and returns the feed's sticky
// last error. Close is idempotent; Submit after Close resolves immediately
// with ErrFeedClosed.
func (f *Feed) Close() error {
	f.submitMu.Lock()
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.commitQ)
	}
	f.mu.Unlock()
	f.submitMu.Unlock()
	<-f.done
	return f.Drain()
}

// Stats returns the feed's batch counters.
func (f *Feed) Stats() FeedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
