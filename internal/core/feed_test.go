package core

// Platform-level coverage of the standing ingestion feed and the publish
// error paths: the feed's async publisher must leave every store exactly
// where one-at-a-time submit-and-await (ConsumeDeltas) would, serving-side
// entry points must take their turn behind every submitted batch, curation
// and the resolver swap must be ordered with the batches around them, a
// closed feed must end the platform's writes, and an Engine.Publish failure
// must heal — never leaving RefreshServing or the agents permanently
// diverged from the KG.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saga/internal/construct"
	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/triple"
	"saga/internal/workload"
)

// platformBatches builds `rounds` batches over `sources` type-disjoint
// sources: round 0 adds, later rounds whole-source updates over a shifted
// window (updates mixed with fresh adds).
func platformBatches(rounds, sources, count int) [][]ingest.Delta {
	out := make([][]ingest.Delta, rounds)
	for r := range out {
		deltas := make([]ingest.Delta, sources)
		for s := range deltas {
			spec := workload.SourceSpec{
				Name:   fmt.Sprintf("src%02d", s),
				Type:   fmt.Sprintf("kind%02d", s),
				Offset: r * 4, Count: count,
				DupRate: 0.1, TypoRate: 0.1, RichFacts: 2,
				Seed: int64(r*100 + s + 1),
			}
			if r == 0 {
				deltas[s] = spec.Delta()
			} else {
				deltas[s] = ingest.Delta{Source: spec.Name, Updated: spec.Entities()}
			}
		}
		out[r] = deltas
	}
	return out
}

// TestPlatformFeedMatchesSerialConsumeDeltas: the feed must leave the KG,
// the operation log, and every agent-derived store byte-identical to serial
// ConsumeDeltas calls — one submit-and-await at a time — over the same
// batches.
func TestPlatformFeedMatchesSerialConsumeDeltas(t *testing.T) {
	batches := platformBatches(4, 3, 10)

	serial := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 3}})
	for _, b := range batches {
		if _, err := serial.ConsumeDeltas(b); err != nil {
			t.Fatal(err)
		}
	}

	fed := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 3}})
	f, err := fed.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]<-chan construct.BatchResult, 0, len(batches))
	for _, b := range batches {
		results = append(results, f.Submit(b))
	}
	for i, ch := range results {
		if res := <-ch; res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if got, want := fed.KG.Graph.Triples(), serial.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("feed KG diverged from serial ConsumeDeltas")
	}
	if got, want := fed.GraphReplica.Triples(), serial.GraphReplica.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("feed graph replica diverged from serial ConsumeDeltas")
	}
	if got, want := fed.Engine.Log.LastLSN(), serial.Engine.Log.LastLSN(); got != want {
		t.Fatalf("log LSN = %d, serial %d", got, want)
	}
	// Every agent fully caught up before Close returned.
	for _, name := range fed.Engine.Agents() {
		if behind := fed.Engine.Freshness(name); behind != 0 {
			t.Fatalf("agent %s is %d ops behind after Close", name, behind)
		}
	}
}

// TestFeedDrainBeforeServing: RefreshServing and Checkpoint must observe
// every batch submitted before them, without the caller waiting on results;
// Feed returns the one feed ConsumeDeltas submits to.
func TestFeedDrainBeforeServing(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range platformBatches(3, 2, 8) {
		f.Submit(b) // results intentionally ignored: drain must cover them
	}
	p.RefreshServing()
	if got, want := p.Live.Len(), p.KG.Graph.Len(); got < want {
		t.Fatalf("live store has %d of %d KG entities after RefreshServing", got, want)
	}
	before := p.KG.Graph.Len()
	f.Submit([]ingest.Delta{workload.SourceSpec{Name: "late", Type: "late", Count: 5, Seed: 9}.Delta()})
	w, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.GraphReplica.Len(), p.KG.Graph.Len(); got != want || want == before {
		t.Fatalf("replica has %d of %d KG entities after Checkpoint (%d before the last batch)", got, want, before)
	}
	if got := p.Engine.Log.LastLSN(); w != got {
		t.Fatalf("Checkpoint returned watermark %d, log head %d", w, got)
	}
	if again, err := p.Feed(FeedOptions{}); err != nil || again != f {
		t.Fatalf("Feed returned %p, %v; want the standing feed %p", again, err, f)
	}
	submitted := f.Stats().Submitted
	if _, err := p.ConsumeDeltas(platformBatches(1, 1, 4)[0]); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Submitted; got != submitted+1 {
		t.Fatalf("ConsumeDeltas submitted %d batches to the standing feed, want 1", got-submitted)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConsumeDeltasPublishFailureHeals: an Engine.Publish failure for one
// delta must not stop the batch's other deltas from reaching the stores, and
// the failed delta's effects must re-sync from the KG at the next publish
// point — RefreshServing and the agents never stay diverged. Construction is
// one partition; the case keeps the subtest name it has always been reported
// under.
func TestConsumeDeltasPublishFailureHeals(t *testing.T) {
	t.Run("partitions=1", testConsumeDeltasPublishFailureHeals)
}

func testConsumeDeltasPublishFailureHeals(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	failErr := errors.New("injected publish failure")
	p.publishHook = func(source string) error {
		if source == "src01" {
			return failErr
		}
		return nil
	}
	if _, err := p.ConsumeDeltas(platformBatches(1, 3, 8)[0]); !errors.Is(err, failErr) {
		t.Fatalf("consume error = %v", err)
	}
	if p.KG.Graph.Len() == 0 {
		t.Fatal("KG empty — commit should precede publish")
	}
	// The other deltas' publishes continued past the failure and agents were
	// caught up on them.
	if p.GraphReplica.Len() == 0 {
		t.Fatal("replica empty: publish loop stopped at the first failure")
	}
	if p.GraphReplica.Len() >= p.KG.Graph.Len() {
		t.Fatalf("replica unexpectedly complete: %d of %d", p.GraphReplica.Len(), p.KG.Graph.Len())
	}
	// Heal: the engine recovers, the next serving refresh re-syncs.
	p.publishHook = nil
	p.RefreshServing()
	if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("replica still diverged from the KG after the engine recovered")
	}
	if got, want := p.Live.Len(), p.KG.Graph.Len(); got < want {
		t.Fatalf("live store has %d of %d entities", got, want)
	}
}

// TestFeedPublishFailureHealsLaterBatchesCommit: a publish failure inside
// the feed's async publisher fails that batch's result only; later batches
// commit and publish, and the failed batch's effects heal at the next
// publish point. Construction is one partition; the case keeps the subtest
// name it has always been reported under.
func TestFeedPublishFailureHealsLaterBatchesCommit(t *testing.T) {
	t.Run("partitions=1", testFeedPublishFailureHealsLaterBatchesCommit)
}

func testFeedPublishFailureHealsLaterBatchesCommit(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	failErr := errors.New("injected publish failure")
	p.publishHook = func(source string) error {
		if source == "src01" {
			return failErr
		}
		return nil
	}
	batches := platformBatches(3, 2, 8)
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var results []<-chan construct.BatchResult
	for _, b := range batches {
		results = append(results, f.Submit(b))
	}
	failed := 0
	for _, ch := range results {
		if res := <-ch; res.Err != nil {
			if !errors.Is(res.Err, failErr) {
				t.Fatalf("unexpected batch error: %v", res.Err)
			}
			failed++
		}
	}
	if failed != len(batches) {
		// src01 appears in every batch, so every batch's publish reports it.
		t.Fatalf("failed batches = %d of %d", failed, len(batches))
	}
	// src00's ops all published; src01's are pending.
	if p.GraphReplica.Len() == 0 || p.GraphReplica.Len() >= p.KG.Graph.Len() {
		t.Fatalf("replica %d of %d entities", p.GraphReplica.Len(), p.KG.Graph.Len())
	}
	p.publishHook = nil
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("replica still diverged after the engine recovered")
	}
	if err := f.Close(); !errors.Is(err, failErr) {
		t.Fatalf("Close sticky error = %v", err)
	}
}

// TestSyncConsumeRoutesThroughOpenFeed: the synchronous consume paths submit
// to the standing feed, behind a batch submitted without awaiting, so the
// feed's ordered publisher stays the engine's single producer — and the sync
// call still returns fully published, caught-up state.
func TestSyncConsumeRoutesThroughOpenFeed(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batches := platformBatches(2, 2, 8)
	f.Submit(batches[0])
	stats, err := p.ConsumeDeltas(batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(batches[1]) || stats[0].Source != batches[1][0].Source {
		t.Fatalf("routed stats = %+v", stats)
	}
	// The sync call resolved after its batch (and everything before it)
	// committed and published.
	for _, name := range p.Engine.Agents() {
		if behind := p.Engine.Freshness(name); behind != 0 {
			t.Fatalf("agent %s is %d ops behind after routed ConsumeDeltas", name, behind)
		}
	}
	single, err := p.ConsumeDelta(batches[1][0])
	if err != nil {
		t.Fatal(err)
	}
	if single.Source != batches[1][0].Source {
		t.Fatalf("routed single-delta stats = %+v", single)
	}
	fs := f.Stats()
	if fs.Submitted != 3 {
		t.Fatalf("feed saw %d batches, want 3 (sync consumes must route through it)", fs.Submitted)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("replica diverged from KG")
	}
}

// TestPlatformFeedEmptyBatch: the platform feed fast-paths empty batches.
func TestPlatformFeedEmptyBatch(t *testing.T) {
	p := newTestPlatform(t, Options{})
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-f.Submit(nil); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Engine.Log.LastLSN(); got != 0 {
		t.Fatalf("empty batch published %d ops", got)
	}
}

// churnStream builds a mixed stream over sources sharing entity types
// (cross-source fusion): adds, shifted-window updates, deletes, and rounds of
// volatile popularity churn with a stable update every third round.
func churnStream(rounds, sources, count int) [][]ingest.Delta {
	batches := make([][]ingest.Delta, rounds)
	for r := range batches {
		deltas := make([]ingest.Delta, 0, sources)
		for s := 0; s < sources; s++ {
			src := fmt.Sprintf("src%02d", s)
			offset := 0
			if r >= 1 {
				offset = 4
			}
			spec := workload.SourceSpec{
				Name: src, Type: fmt.Sprintf("kind%02d", s%2),
				Offset: offset, Count: count,
				DupRate: 0.1, TypoRate: 0.1, RichFacts: 2,
				Seed: int64(r*100 + s + 1),
			}
			switch {
			case r == 0:
				deltas = append(deltas, spec.Delta())
			case r == 1:
				deltas = append(deltas, ingest.Delta{Source: src, Updated: spec.Entities()})
			default:
				d := ingest.Delta{Source: src}
				if r == 2 {
					d.Deleted = []triple.EntityID{
						triple.EntityID(fmt.Sprintf("%s:e%d", src, s+4)),
					}
				}
				for u := 0; u < count+4; u++ {
					vol := triple.NewEntity(triple.EntityID(fmt.Sprintf("%s:e%d", src, u)))
					vol.Add(triple.New("", "popularity",
						triple.Float(float64(r)+float64(u)/1000)).WithSource(src, 0.9))
					d.Volatile = append(d.Volatile, vol)
				}
				if r%3 == 0 {
					d.Updated = spec.Entities()
				}
				deltas = append(deltas, d)
			}
		}
		batches[r] = deltas
	}
	return batches
}

// TestFeedConcurrentServingReaders hammers the serving surfaces — platform
// stats, COW snapshots, text search, entity store scans, replica ranges, KGQ
// queries — while a feed ingests volatile-heavy batches. Run with -race; the
// assertions are liveness plus a fully published final state.
func TestFeedConcurrentServingReaders(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	batches := churnStream(8, 3, 8)
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					_ = p.Stats()
					snap := p.KG.Graph.Snapshot()
					_ = snap.Len()
				case 1:
					_ = p.Live.Serving().SearchText("okafor", 5)
					_ = p.EntityStore.Range(func(e *triple.Entity) bool { return true })
				case 2:
					p.GraphReplica.RangeShared(func(e *triple.Entity) bool { return true })
					_, _ = p.Query(`entity(type="kind00") | attr("popularity")`)
				}
			}
		}(r)
	}

	results := make([]<-chan construct.BatchResult, 0, len(batches))
	for _, b := range batches {
		results = append(results, f.Submit(b))
	}
	for i, ch := range results {
		if res := <-ch; res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
	}
	close(stop)
	readers.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("replica diverged from the KG after the feed closed")
	}
}

// TestLinkDeltasRideSettlingSource: a link-table delta reaches the log on an
// op of a source that settled it — never re-attributed to a synthetic
// producer — and every settled key reaches the log at all (recovery replays
// the table from these ops alone). Construction is one partition; the case
// keeps the subtest name it has always been reported under.
func TestLinkDeltasRideSettlingSource(t *testing.T) {
	t.Run("partitions=1", testLinkDeltasRideSettlingSource)
}

func testLinkDeltasRideSettlingSource(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	batches := churnStream(5, 3, 8)
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]<-chan construct.BatchResult, 0, len(batches))
	for _, b := range batches {
		results = append(results, f.Submit(b))
	}
	settledBy := make(map[triple.EntityID]map[string]bool)
	settle := func(key triple.EntityID, source string) {
		if settledBy[key] == nil {
			settledBy[key] = make(map[string]bool)
		}
		settledBy[key][source] = true
	}
	for i, ch := range results {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
		for _, st := range res.Stats {
			for key := range st.Links {
				settle(key, st.Source)
			}
			for _, key := range st.Unlinks {
				settle(key, st.Source)
			}
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	logged := make(map[triple.EntityID]bool)
	for _, op := range p.Engine.Log.Read(0, 0) {
		keys := append([]triple.EntityID(nil), op.Unlinks...)
		for key := range op.Links {
			keys = append(keys, key)
		}
		for _, key := range keys {
			logged[key] = true
			if !settledBy[key][op.Source] {
				t.Fatalf("lsn %d: link delta %s rides an op of %q, settled by %v", op.LSN, key, op.Source, settledBy[key])
			}
		}
	}
	for key := range settledBy {
		if !logged[key] {
			t.Fatalf("settled link key %s never reached the log", key)
		}
	}
}

// seedAndQueueRename consumes a small source, refreshes the live store, and
// queues a curation edit renaming the KG entity of s:e0; it returns that
// entity.
func seedAndQueueRename(t *testing.T, p *Platform) triple.EntityID {
	t.Helper()
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 3, Seed: 5}.Delta()); err != nil {
		t.Fatal(err)
	}
	p.RefreshServing()
	kgID, ok := p.KG.Lookup("s:e0")
	if !ok {
		t.Fatal("s:e0 not linked")
	}
	var nameFact triple.Triple
	for _, tr := range p.Live.Get(kgID).Triples {
		if tr.Predicate == triple.PredName {
			nameFact = tr
		}
	}
	if err := p.Curation.Decide(p.Live, live.Decision{
		Kind: live.DecisionEdit, Entity: kgID, Fact: nameFact, NewValue: triple.String("Corrected Name"),
	}); err != nil {
		t.Fatal(err)
	}
	return kgID
}

// TestCurationOrderedWithFeed: a batch the commit loop captured before a
// curation edit must not publish after it. The publish hook forces that
// interleaving: the first publish point after ApplyCurationDecisions starts —
// the retry of a failed side-source publish — submits a volatile batch on the
// curated entity and waits until the KG holds its value. When curation edited
// the KG from the caller's goroutine, the batch committed before the edit and
// published after it, so its stale capture overwrote the curated name in the
// replica.
func TestCurationOrderedWithFeed(t *testing.T) {
	for i := 0; i < 20 && !t.Failed(); i++ {
		testCurationOrderedWithFeed(t, i)
	}
}

func testCurationOrderedWithFeed(t *testing.T, iter int) {
	p := newTestPlatform(t, Options{})
	kgID := seedAndQueueRename(t, p)
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	failErr := errors.New("injected publish failure")
	pop := 0.5 + float64(iter)/1000
	vol := triple.NewEntity("s:e0")
	vol.Add(triple.New("", "popularity", triple.Float(pop)).WithSource("s", 0.9))
	var failed, armed atomic.Bool
	volatile := make(chan (<-chan construct.BatchResult), 1)
	p.publishHook = func(source string) error {
		if source != "p1" {
			return nil
		}
		if !failed.Swap(true) {
			return failErr
		}
		if !armed.Swap(false) {
			return nil
		}
		volatile <- f.Submit([]ingest.Delta{{Source: "s", Volatile: []*triple.Entity{vol}}})
		for deadline := time.Now().Add(5 * time.Second); p.KG.Graph.GetShared(kgID).First("popularity").Float64() != pop; {
			if time.Now().After(deadline) {
				t.Error("the volatile batch never committed")
				break
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	side := workload.SourceSpec{Name: "p1", Type: "side", Count: 2, Seed: 7}.Delta()
	if res := <-f.Submit([]ingest.Delta{side}); !errors.Is(res.Err, failErr) {
		t.Fatalf("side batch error = %v, want the injected failure", res.Err)
	}
	armed.Store(true)
	if n, err := p.ApplyCurationDecisions(); n != 1 || err != nil {
		t.Fatalf("applied = %d, err = %v", n, err)
	}
	select {
	case ch := <-volatile:
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	default:
		t.Fatal("no publish point retried the side source during curation")
	}
	if err := f.Close(); err != nil && !errors.Is(err, failErr) {
		t.Fatal(err)
	}
	want, _ := p.KG.Graph.Get(kgID).MarshalBinary()
	got, _ := p.GraphReplica.Get(kgID).MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatalf("iteration %d: replica %q differs from the KG %q", iter, p.GraphReplica.Get(kgID).Name(), p.KG.Graph.Get(kgID).Name())
	}
}

// TestBuildNERDWhileFeeding: BuildNERD swaps the pipeline's object resolver
// while a submitter keeps the commit loop busy. Every commit reads the
// resolver on the commit loop, so the swap must happen there too; run with
// -race.
func TestBuildNERDWhileFeeding(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	batches := platformBatches(4, 2, 8)
	if _, err := p.ConsumeDeltas(batches[0]); err != nil {
		t.Fatal(err)
	}
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var committed atomic.Int64
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if res := <-f.Submit(batches[1+i%(len(batches)-1)]); res.Err != nil {
				done <- res.Err
				return
			}
			committed.Add(1)
		}
	}()
	n := p.BuildNERD()
	// Let the submitter commit past the swap without synchronizing with it.
	for c, deadline := committed.Load(), time.Now().Add(5*time.Second); committed.Load() < c+2; {
		if time.Now().After(deadline) {
			t.Fatal("the submitter stalled")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.Pipeline.Resolver != n {
		t.Fatal("the pipeline does not resolve with NERD after BuildNERD")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("replica diverged from the KG")
	}
}

// TestClosedFeedEndsWrites: closing the standing feed ends the platform's
// writes — ConsumeDeltas, Checkpoint and ApplyCurationDecisions fail with
// ErrFeedClosed and change neither the KG nor the log — while reads,
// RefreshServing and Close keep working.
func TestClosedFeedEndsWrites(t *testing.T) {
	p := newTestPlatform(t, Options{})
	seedAndQueueRename(t, p)
	bad := ingest.Delta{Source: "bad", Added: []*triple.Entity{nil}}
	if st, err := p.ConsumeDelta(bad); err == nil || st.Source != "bad" {
		t.Fatalf("invalid delta: stats %+v, err %v; want its source and an error", st, err)
	}
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("Close should return the sticky validation error")
	}
	kg, lsn := p.KG.Graph.Triples(), p.Engine.Log.LastLSN()
	late := workload.SourceSpec{Name: "late", Type: "late", Count: 3, Seed: 9}.Delta()
	if st, err := p.ConsumeDelta(late); !errors.Is(err, construct.ErrFeedClosed) || st.Source != "late" {
		t.Fatalf("ConsumeDelta after close: stats %+v, err %v", st, err)
	}
	if _, err := p.ConsumeDeltas([]ingest.Delta{late}); !errors.Is(err, construct.ErrFeedClosed) {
		t.Fatalf("ConsumeDeltas after close = %v", err)
	}
	if _, err := p.Checkpoint(); !errors.Is(err, construct.ErrFeedClosed) {
		t.Fatalf("Checkpoint after close = %v", err)
	}
	if n, err := p.ApplyCurationDecisions(); n != 0 || !errors.Is(err, construct.ErrFeedClosed) {
		t.Fatalf("ApplyCurationDecisions after close = %d, %v", n, err)
	}
	if !reflect.DeepEqual(p.KG.Graph.Triples(), kg) || p.Engine.Log.LastLSN() != lsn {
		t.Fatal("a write after the feed closed changed the KG or the log")
	}
	p.RefreshServing()
	if got, want := p.Live.Len(), p.GraphReplica.Len(); got != want || want == 0 {
		t.Fatalf("live store holds %d entities after RefreshServing, replica %d", got, want)
	}
	if res, err := p.Query(`entity(type="human")`); err != nil || len(res.IDs) == 0 {
		t.Fatalf("query after close = %v, %v", res.IDs, err)
	}
}
