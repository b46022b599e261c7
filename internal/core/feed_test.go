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
	"maps"
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

// TestPlatformFeedMatchesSerialConsumeDeltas: the feed must leave the KG and
// every agent-derived store byte-identical to serial ConsumeDeltas calls —
// one submit-and-await at a time — over the same batches, with a log that
// replays to the same KG in one op per publish group. The publisher is held
// on the first batch until the others have committed, so the backlog groups
// on every run.
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
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	fed.publishHook = func() error {
		if !held.Swap(true) {
			close(entered)
			<-release
		}
		return nil
	}
	results := []<-chan construct.BatchResult{f.Submit(batches[0])}
	<-entered
	for _, b := range batches[1:] {
		results = append(results, f.Submit(b))
	}
	// A barrier's edit runs on the commit loop after every batch before it
	// has committed.
	committed := make(chan struct{})
	results = append(results, f.Barrier(&barrierTurn{edit: func() capturedOp {
		close(committed)
		return capturedOp{}
	}}))
	<-committed
	close(release)
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
	// One op per publish group: the held backlog published as one.
	if got, groups, serialLSN := fed.Engine.Log.LastLSN(), f.Stats().PublishGroups, serial.Engine.Log.LastLSN(); got != uint64(groups) || got >= serialLSN {
		t.Fatalf("log LSN = %d after %d publish groups, serial %d: want one op per group, fewer than serial", got, groups, serialLSN)
	}
	checkReplayMatchesKG(t, fed, "fed")
	// Every agent fully caught up before Close returned.
	if got, want := storeRecords(t, fed.EntityStore), storeRecords(t, serial.EntityStore); !reflect.DeepEqual(got, want) {
		t.Fatal("feed entity store diverged from serial ConsumeDeltas")
	}
	if got, want := linkTable(fed), linkTable(serial); !reflect.DeepEqual(got, want) {
		t.Fatal("feed link replica diverged from serial ConsumeDeltas")
	}
}

// linkTable returns a copy of p's log-derived link replica.
func linkTable(p *Platform) map[triple.EntityID]triple.EntityID {
	p.linkMu.Lock()
	defer p.linkMu.Unlock()
	return maps.Clone(p.linkReplica)
}

// churnBatches builds `rounds` one-delta batches over one source: round 0
// adds count clean entities, every later round overwrites the same entities'
// volatile popularity with the round number. Every churn round therefore
// touches the same entities and publishes the same operations.
func churnBatches(rounds, count int) [][]ingest.Delta {
	spec := workload.SourceSpec{Name: "src", Type: "kind", Count: count, Seed: 1}
	out := [][]ingest.Delta{{spec.Delta()}}
	for r := 1; r < rounds; r++ {
		churn := make([]*triple.Entity, count)
		for u := range churn {
			e := triple.NewEntity(triple.EntityID(fmt.Sprintf("src:e%d", u)))
			e.Add(triple.New("", "popularity", triple.Float(float64(r))).WithSource("src", 0.9))
			churn[u] = e
		}
		out = append(out, []ingest.Delta{{Source: "src", Volatile: churn}})
	}
	return out
}

// TestFeedConflatesBacklog: a publisher that falls behind publishes its
// backlog as one group, each entity once at its final state, so the log gets
// fewer ops and fewer entity records than serial ConsumeDeltas writes for the
// same batches, while the KG and the replica end exactly where the serial run
// leaves them.
// publishHook holds batch 1's publish until batches 2..5, updates of the
// same entities, have committed behind it.
func TestFeedConflatesBacklog(t *testing.T) {
	batches := churnBatches(5, 12)

	serial := newTestPlatform(t, Options{})
	for _, b := range batches {
		if _, err := serial.ConsumeDeltas(b); err != nil {
			t.Fatal(err)
		}
	}

	fed := newTestPlatform(t, Options{})
	f, err := fed.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	fed.publishHook = func() error {
		if !held.Swap(true) {
			close(entered)
			<-release
		}
		return nil
	}
	results := []<-chan construct.BatchResult{f.Submit(batches[0])}
	<-entered
	for _, b := range batches[1:] {
		results = append(results, f.Submit(b))
	}
	// Commits run in order, so batch 5's value in the KG means batches 2..4
	// already wait in the publish queue.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		kgID, ok := fed.KG.Lookup("src:e0")
		if e := fed.KG.Graph.GetShared(kgID); ok && e != nil && e.First("popularity").Float64() == float64(len(batches)-1) {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("batches 2..5 never committed behind the held publisher")
		}
	}
	close(release)
	for i, ch := range results {
		if res := <-ch; res.Err != nil {
			t.Fatalf("batch %d: %v", i+1, res.Err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if got, want := fed.Engine.Log.LastLSN(), serial.Engine.Log.LastLSN(); got >= want {
		t.Fatalf("held publisher logged %d ops, serial ConsumeDeltas %d: the backlog did not group", got, want)
	}
	records := func(p *Platform) (n int) {
		for _, op := range p.Engine.Log.Read(0, 0) {
			n += len(op.EntityIDs)
		}
		return n
	}
	if got, want := records(fed), records(serial); got >= want {
		t.Fatalf("held publisher logged %d entity records, serial ConsumeDeltas %d: the backlog did not conflate", got, want)
	}
	if got, want := fed.KG.Graph.Triples(), serial.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("conflated KG diverged from serial ConsumeDeltas")
	}
	if got, want := fed.GraphReplica.Triples(), serial.GraphReplica.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("conflated graph replica diverged from serial ConsumeDeltas")
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
	if got, want := p.Live.Current().Len(), p.KG.Graph.Len(); got < want {
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

// TestConsumeDeltasPublishFailureHeals: when a batch's publish fails, the
// batch stays committed, the stores keep what earlier batches published, and
// the failed batch's effects re-sync from the KG at the next publish point —
// RefreshServing and the agents never stay diverged. Construction is one
// partition; the case keeps the subtest name it has always been reported
// under.
func TestConsumeDeltasPublishFailureHeals(t *testing.T) {
	t.Run("partitions=1", testConsumeDeltasPublishFailureHeals)
}

func testConsumeDeltasPublishFailureHeals(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2}})
	batches := platformBatches(2, 3, 8)
	if _, err := p.ConsumeDeltas(batches[0]); err != nil {
		t.Fatal(err)
	}
	published := p.GraphReplica.Len()
	failErr := errors.New("injected publish failure")
	p.publishHook = func() error { return failErr }
	if _, err := p.ConsumeDeltas(batches[1]); !errors.Is(err, failErr) {
		t.Fatalf("consume error = %v", err)
	}
	if p.KG.Graph.Len() <= published {
		t.Fatal("the failed batch's adds are not in the KG — commit should precede publish")
	}
	// The earlier batch's publish stands, and agents were caught up on it.
	if p.GraphReplica.Len() != published {
		t.Fatalf("replica has %d entities after the failed publish, %d before it", p.GraphReplica.Len(), published)
	}
	// Heal: the engine recovers, the next serving refresh re-syncs.
	p.publishHook = nil
	p.RefreshServing()
	if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("replica still diverged from the KG after the engine recovered")
	}
	if got, want := p.Live.Current().Len(), p.KG.Graph.Len(); got < want {
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
	var failing atomic.Bool
	p.publishHook = func() error {
		if failing.Load() {
			return failErr
		}
		return nil
	}
	batches := platformBatches(4, 2, 8)
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-f.Submit(batches[0]); res.Err != nil {
		t.Fatal(res.Err)
	}
	published := p.GraphReplica.Len()
	failing.Store(true)
	var results []<-chan construct.BatchResult
	for _, b := range batches[1:] {
		results = append(results, f.Submit(b))
	}
	for i, ch := range results {
		if res := <-ch; !errors.Is(res.Err, failErr) {
			t.Fatalf("batch %d error = %v, want the injected failure", i+1, res.Err)
		}
	}
	// Later batches committed behind the failed ones; batch 0's publish
	// stands, and the failed groups' effects are pending.
	if p.GraphReplica.Len() != published || p.KG.Graph.Len() <= published {
		t.Fatalf("replica %d of %d entities, %d before the failures", p.GraphReplica.Len(), p.KG.Graph.Len(), published)
	}
	failing.Store(false)
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
	if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatal("replica behind the KG after routed ConsumeDeltas")
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

// TestLinkDeltasRideSettlingSource: every link-table key a batch settled
// reaches the log, on the op of the group that published the batch
// (recovery replays the table from these ops alone). Construction is one
// partition; the case keeps the subtest name it has always been reported
// under.
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
	settled := make(map[triple.EntityID]bool)
	for i, ch := range results {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
		for _, st := range res.Stats {
			for key := range st.Links {
				settled[key] = true
			}
			for _, key := range st.Unlinks {
				settled[key] = true
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
		}
	}
	for key := range settled {
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
	for _, tr := range p.Live.Current().GetShared(kgID).Triples {
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
	p.publishHook = func() error {
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
	if got, want := p.Live.Current().Len(), p.GraphReplica.Len(); got != want || want == 0 {
		t.Fatalf("live store holds %d entities after RefreshServing, replica %d", got, want)
	}
	if res, err := p.Query(`entity(type="human")`); err != nil || len(res.IDs) == 0 {
		t.Fatalf("query after close = %v, %v", res.IDs, err)
	}
}
