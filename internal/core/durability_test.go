package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saga/internal/construct"
	"saga/internal/graphengine"
	"saga/internal/ingest"
	"saga/internal/triple"
	"saga/internal/workload"
)

// durableState extends backendState with the construction link table, the
// full piece of recovered state the entity payloads cannot reproduce.
type durableState struct {
	backendState
	Links map[triple.EntityID]triple.EntityID
}

func durableStateOf(t *testing.T, p *Platform) durableState {
	t.Helper()
	return durableState{backendState: stateOf(t, p), Links: p.KG.LinksSnapshot()}
}

// durabilityBatches generates a delta stream with inserts, updates, and
// volatile churn, so recovery exercises upserts, link rewrites, and deletes.
func durabilityBatches(rounds int) [][]ingest.Delta {
	out := make([][]ingest.Delta, 0, rounds)
	for r := 0; r < rounds; r++ {
		spec := workload.SourceSpec{
			Name: "src", Count: 24, Offset: r * 4,
			DupRate: 0.05, TypoRate: 0.1, RichFacts: 2, Seed: int64(r + 1),
		}
		if r == 0 {
			out = append(out, []ingest.Delta{spec.Delta()})
			continue
		}
		d := ingest.Delta{Source: "src", Updated: spec.Entities()}
		if r%3 == 2 {
			churn := workload.SourceSpec{Name: "src", Count: 6, Offset: r, Seed: int64(100 + r)}
			d.Volatile = churn.Entities()
		}
		out = append(out, []ingest.Delta{d})
	}
	return out
}

// durabilityConfig is one cell of the recovery matrix.
type durabilityConfig struct {
	name    string
	backend string
}

// durabilityConfigs enumerates the recovery matrix: both durable layouts
// (hybrid memory-backend-with-durability-dir, full disk backend).
func durabilityConfigs() []durabilityConfig {
	return []durabilityConfig{{"hybrid", ""}, {"disk", "disk"}}
}

// durableOptions builds the Options for one matrix cell rooted at dir.
func durableOptions(cfg durabilityConfig, dir string) Options {
	opts := Options{Construction: ConstructionOptions{Workers: 2}}
	if cfg.backend == "" {
		opts.Durability.Dir = dir
	} else {
		opts.Storage = StorageOptions{Backend: cfg.backend, DataDir: dir}
	}
	return opts
}

// copyTree snapshots a directory the way a crash preserves it: file by file,
// tolerating files that vanish or shrink mid-copy (a checkpoint compacting
// the log swaps its segments). MANIFEST copies first, so everything it
// references was durably complete before the snapshot point — the same
// write-ordering argument real recovery relies on. That argument only covers
// the forward direction, though: a compaction that completes *during* the
// copy deletes segments the already-copied (old) manifest still lists, an
// old-manifest/new-segments mix no real crash can produce (old segments are
// deleted strictly after the new manifest is durable). Every compaction
// rewrites the log MANIFEST, so the copy is accepted only if each manifest
// re-reads byte-identical after the last data file is copied.
// Returns false if the tree mutated so the copy should be retried.
func copyTree(t *testing.T, src, dst string) bool {
	t.Helper()
	var files []string
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil // vanished mid-walk
		}
		if !info.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(files, func(i, j int) bool {
		pi := filepath.Base(files[i]) == "MANIFEST"
		pj := filepath.Base(files[j]) == "MANIFEST"
		if pi != pj {
			return pi
		}
		return files[i] < files[j]
	})
	manifests := make(map[string][]byte)
	for _, path := range files {
		rel, err := filepath.Rel(src, path)
		if err != nil {
			t.Fatal(err)
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			t.Fatal(err)
		}
		in, err := os.Open(path)
		if err != nil {
			return false // deleted between walk and copy: retry
		}
		out, err := os.Create(target)
		if err != nil {
			in.Close()
			t.Fatal(err)
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) == "MANIFEST" {
			copied, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			manifests[path] = copied
		}
	}
	// A swap/rotation landed inside the copy window iff a manifest moved
	// since it was copied; the snapshot may then mix an old manifest with
	// newer segments, so discard it.
	for path, copied := range manifests {
		now, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(now, copied) {
			return false
		}
	}
	return true
}

// snapshotTree copies src into a fresh temp dir, retrying while a concurrent
// checkpoint churns the tree underneath it.
func snapshotTree(t *testing.T, src string) string {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		dst, err := os.MkdirTemp(t.TempDir(), "snap-*")
		if err != nil {
			t.Fatal(err)
		}
		if copyTree(t, src, dst) {
			return dst
		}
		os.RemoveAll(dst)
	}
	t.Fatal("snapshotTree: tree would not settle after 10 attempts")
	return ""
}

// reopenState opens a platform over dir with the given config, captures its
// full recovered state, and closes it.
func reopenState(t *testing.T, cfg durabilityConfig, dir string) durableState {
	t.Helper()
	p, err := Open(durableOptions(cfg, dir))
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	st := durableStateOf(t, p)
	if err := p.Close(); err != nil {
		t.Fatalf("close reopened platform: %v", err)
	}
	return st
}

// prefixState is what a reopened platform must hold after some prefix of
// the batches it was fed: the construction KG, its link table and the
// entity store's records.
type prefixState struct {
	KG       []triple.Triple
	Links    map[triple.EntityID]triple.EntityID
	Entities map[triple.EntityID]string
}

func prefixStateOf(t *testing.T, p *Platform) prefixState {
	t.Helper()
	st := prefixState{KG: p.KG.Graph.Triples(), Links: p.KG.LinksSnapshot(), Entities: make(map[triple.EntityID]string)}
	if err := p.EntityStore.Range(func(e *triple.Entity) bool {
		b, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		st.Entities[e.ID] = string(b)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

// serialPrefixStates feeds batches one at a time to a volatile platform that
// never checkpoints and returns its state after each prefix, the empty one
// first.
func serialPrefixStates(t *testing.T, batches [][]ingest.Delta) []prefixState {
	t.Helper()
	p, err := Open(Options{Construction: ConstructionOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	states := []prefixState{prefixStateOf(t, p)}
	for _, b := range batches {
		if _, err := p.ConsumeDeltas(b); err != nil {
			t.Fatal(err)
		}
		states = append(states, prefixStateOf(t, p))
	}
	return states
}

// assertSnapshotIsAPrefix is the kill-point invariant: the snapshot reopens,
// and what it recovered equals the serial reference after some batch prefix.
// The log alone is the state, so there is nothing else to recover from.
func assertSnapshotIsAPrefix(t *testing.T, cfg durabilityConfig, snap, label string, ref []prefixState) {
	t.Helper()
	p, err := Open(durableOptions(cfg, snap))
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	got := prefixStateOf(t, p)
	if err := p.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}
	for _, want := range ref {
		if reflect.DeepEqual(got, want) {
			return
		}
	}
	t.Errorf("%s: recovered kg=%d links=%d entities=%d, which no batch prefix of the serial reference reaches", label, len(got.KG), len(got.Links), len(got.Entities))
}

// TestRecoveryRoundTrip closes a durable platform cleanly and reopens it:
// the construction KG, link table, graph replica, entity store, text index,
// and log position must come back byte-identical, restored from the latest
// checkpoint plus only the log suffix.
func TestRecoveryRoundTrip(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			p, err := Open(durableOptions(cfg, dir))
			if err != nil {
				t.Fatal(err)
			}
			batches := durabilityBatches(6)
			for _, b := range batches[:4] {
				if _, err := p.ConsumeDeltas(b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			ckptLSN := p.DurabilityStats().LastCheckpointLSN
			if ckptLSN == 0 {
				t.Fatal("no durable checkpoint saved")
			}
			// Two more batches past the checkpoint: the suffix recovery replays.
			for _, b := range batches[4:] {
				if _, err := p.ConsumeDeltas(b); err != nil {
					t.Fatal(err)
				}
			}
			want := durableStateOf(t, p)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(durableOptions(cfg, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := durableStateOf(t, re); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs from pre-close state:\n  got:  lsn=%d entities=%d kg=%d links=%d\n  want: lsn=%d entities=%d kg=%d links=%d",
					got.LastLSN, len(got.Entities), len(got.KG), len(got.Links),
					want.LastLSN, len(want.Entities), len(want.KG), len(want.Links))
			}
			st := re.DurabilityStats()
			if st.RecoveredLSN != ckptLSN {
				t.Errorf("recovered from lsn %d, want checkpoint %d", st.RecoveredLSN, ckptLSN)
			}
			if st.RecoveredEntities == 0 {
				t.Error("checkpoint restore reported zero entities")
			}
			if st.ReplayedOps == 0 {
				t.Error("suffix replay reported zero ops; batches past the checkpoint were lost")
			}
		})
	}
}

// TestRecoveryReplayBoundedByCheckpoint: recovery restores the newest
// checkpoint and replays only the log past it, so a log ten times older
// replays exactly as many ops as a young one on the same checkpoint cadence.
// ConsumeDeltas awaits each batch, so every publish group is one batch and
// the cadence falls on the same batch boundaries in both logs.
func TestRecoveryReplayBoundedByCheckpoint(t *testing.T) {
	// 5 and 50 batches both end 2 batches past a checkpoint.
	const young, every = 5, 3
	for _, cfg := range durabilityConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			replayed := func(rounds int) int {
				dir := t.TempDir()
				opts := durableOptions(cfg, dir)
				opts.Durability.CheckpointEvery = every
				p, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range churnBatches(rounds, 12) {
					if _, err := p.ConsumeDeltas(b); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				return re.DurabilityStats().ReplayedOps
			}
			youngOps, agedOps := replayed(young), replayed(10*young)
			if youngOps == 0 || agedOps != youngOps {
				t.Fatalf("replayed %d ops from the young log, %d from the 10x-aged one; want equal and non-zero", youngOps, agedOps)
			}
		})
	}
}

// TestKillPointRecovery snapshots the durable tree at arbitrary points while
// a standing feed and periodic checkpoints, each compacting the log, are
// running — the file-level state a kill -9 leaves — and requires every
// snapshot to reopen and hold exactly the state a serial, never-checkpointed
// platform reaches after some prefix of the batches, on every backend.
func TestKillPointRecovery(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOptions(cfg, dir)
			opts.Durability.CheckpointEvery = 2
			p, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			f, err := p.Feed(FeedOptions{})
			if err != nil {
				t.Fatal(err)
			}

			// Submit the stream from one goroutine while snapshots race it:
			// each snapshot lands mid-batch or mid-checkpoint, wherever the
			// platform happens to be.
			batches := durabilityBatches(12)
			ref := serialPrefixStates(t, batches)
			var wg sync.WaitGroup
			wg.Add(1)
			results := make([]<-chan construct.BatchResult, len(batches))
			go func() {
				defer wg.Done()
				for i, b := range batches {
					results[i] = f.Submit(b)
				}
			}()
			var snaps []string
			for i := 0; i < 3; i++ {
				snaps = append(snaps, snapshotTree(t, dir))
			}
			wg.Wait()
			for i, ch := range results {
				if res := <-ch; res.Err != nil {
					t.Fatalf("batch %d: %v", i, res.Err)
				}
			}
			// One snapshot with the whole stream committed but the platform
			// still open.
			f.Drain()
			snaps = append(snaps, snapshotTree(t, dir))
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			want := durableStateOf(t, p)
			if got := prefixStateOf(t, p); !reflect.DeepEqual(got, ref[len(ref)-1]) {
				t.Error("the fed platform differs from the serial reference after every batch")
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			for i, snap := range snaps {
				assertSnapshotIsAPrefix(t, cfg, snap, fmt.Sprintf("snapshot %d", i), ref)
			}
			// The cleanly closed tree recovers to exactly the pre-close state.
			if got := reopenState(t, cfg, dir); !reflect.DeepEqual(got, want) {
				t.Error("clean-close recovery differs from pre-close state")
			}
		})
	}
}

// TestFeedBarrierCheckpoint: Checkpoint with an open feed rides the ordered
// publisher as a barrier turn — it must cover every batch submitted before
// it, and a subsequent recovery restores from it with an empty suffix.
func TestFeedBarrierCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Options{
		Construction: ConstructionOptions{Workers: 2},
		Durability:   DurabilityOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durabilityBatches(3) {
		f.Submit(b)
	}
	// No awaits: the barrier itself must order behind the submitted batches.
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := p.DurabilityStats()
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", st.Checkpoints)
	}
	if got := p.Engine.Log.LastLSN(); st.LastCheckpointLSN != got {
		t.Fatalf("checkpoint lsn = %d, log head = %d; barrier did not cover the submitted batches", st.LastCheckpointLSN, got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := durableStateOf(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{
		Construction: ConstructionOptions{Workers: 2},
		Durability:   DurabilityOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rst := re.DurabilityStats()
	if rst.RecoveredLSN != st.LastCheckpointLSN {
		t.Errorf("recovered lsn = %d, want %d", rst.RecoveredLSN, st.LastCheckpointLSN)
	}
	if rst.ReplayedOps != 0 {
		t.Errorf("replayed %d suffix ops, want 0: everything was checkpointed", rst.ReplayedOps)
	}
	if got := durableStateOf(t, re); !reflect.DeepEqual(got, want) {
		t.Error("recovered state differs from pre-close state")
	}
}

// TestPeriodicCheckpointAndCompaction: CheckpointEvery checkpoints ride the
// publisher without any explicit Checkpoint call, each compacts the log to
// its base, and the compacted log recovers byte-identically.
func TestPeriodicCheckpointAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Construction: ConstructionOptions{Workers: 2},
		Durability:   DurabilityOptions{Dir: dir, CheckpointEvery: 1},
	}
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durabilityBatches(6) {
		// Await each batch so the publisher sees several distinct groups and
		// the periodic counter fires more than once.
		if res := <-f.Submit(b); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	f.Drain()
	st := p.DurabilityStats()
	if st.Checkpoints < 2 {
		t.Fatalf("periodic checkpoints = %d, want >= 2", st.Checkpoints)
	}
	if st.LastCheckpointLSN != p.Engine.Log.LastLSN() {
		t.Fatalf("last checkpoint lsn = %d, log head = %d", st.LastCheckpointLSN, p.Engine.Log.LastLSN())
	}
	if st.LogOps != 1 {
		t.Fatalf("the log holds %d ops after a checkpoint at its head, want the base alone", st.LogOps)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := durableStateOf(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := durabilityConfigs()[0] // hybrid
	if got := reopenState(t, cfg, dir); !reflect.DeepEqual(got, want) {
		t.Error("recovery from the compacted log differs from pre-close state")
	}
}

// TestCheckpointBoundsDurableBytes: the log alone is the durable state. After
// a checkpoint at its head it is one record, so on both layouts the tree
// holds no checkpoint directory and the log's segments hold at most twice
// the KG's conflated image (each entity's frame), however many batches
// overwrote it.
func TestCheckpointBoundsDurableBytes(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOptions(cfg, dir)
			opts.Durability.CheckpointEvery = 8
			p, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for _, b := range churnBatches(60, 12) {
				if _, err := p.ConsumeDeltas(b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, "checkpoints")); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("the tree has a checkpoints directory (stat: %v)", err)
			}
			image := 0
			p.KG.Graph.RangeShared(func(e *triple.Entity) bool {
				image += triple.RecordLen(e.EncodedLen())
				return true
			})
			segs, err := filepath.Glob(filepath.Join(dir, "oplog", "*.seg"))
			if err != nil {
				t.Fatal(err)
			}
			logBytes := int64(0)
			for _, seg := range segs {
				info, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				logBytes += info.Size()
			}
			t.Logf("log segments %d bytes, conflated image %d bytes", logBytes, image)
			if image == 0 || logBytes > 2*int64(image) {
				t.Fatalf("the log's segments hold %d bytes, the KG's conflated image %d: want at most twice", logBytes, image)
			}
		})
	}
}

// TestRecoveryDecodesEachPayloadOnce: recovery applies the base and every
// op after it to the agents once, and the construction KG starts as the
// recovered replica's snapshot, so the KG and the replica hold one record
// per entity, decoded once from the base or a later op.
func TestRecoveryDecodesEachPayloadOnce(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			p, err := Open(durableOptions(cfg, dir))
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range durabilityBatches(6) {
				if _, err := p.ConsumeDeltas(b); err != nil {
					t.Fatal(err)
				}
				if i == 3 {
					if _, err := p.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(durableOptions(cfg, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if st := re.DurabilityStats(); st.RecoveredEntities == 0 || st.ReplayedOps == 0 {
				t.Fatalf("recovered %d base entities and %d ops after the base; want both", st.RecoveredEntities, st.ReplayedOps)
			}
			ids := re.KG.Graph.IDs()
			if !reflect.DeepEqual(ids, re.GraphReplica.IDs()) {
				t.Fatal("the recovered KG and replica hold different entities")
			}
			apart := 0
			for _, id := range ids {
				if re.KG.Graph.GetShared(id) != re.GraphReplica.GetShared(id) {
					apart++
				}
			}
			if apart > 0 {
				t.Fatalf("%d of %d recovered entities have one record in the KG and another in the replica", apart, len(ids))
			}
		})
	}
}

// TestCloseWithInFlightFeedAndCompaction: Close while the feed still has
// unpublished backlog and a checkpoint after every batch compacts the log
// must settle everything in order — every submitted batch commits and
// publishes, and the reopened platform matches the closed one exactly
// (orphaned state would surface as a diff or a reopen error).
func TestCloseWithInFlightFeedAndCompaction(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOptions(cfg, dir)
			opts.Durability.CheckpointEvery = 1
			p, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			f, err := p.Feed(FeedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			batches := durabilityBatches(8)
			results := make([]<-chan construct.BatchResult, len(batches))
			for i, b := range batches {
				results[i] = f.Submit(b)
			}
			// Close immediately: the feed backlog is (very likely) still in
			// flight, each group followed by a checkpoint.
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			// Every batch submitted before Close must have fully committed:
			// Close drains, it never drops.
			for i, ch := range results {
				if res := <-ch; res.Err != nil {
					t.Fatalf("batch %d failed across Close: %v", i, res.Err)
				}
			}
			want := durableState{
				backendState: backendState{
					KG:      p.KG.Graph.Triples(),
					Replica: p.GraphReplica.Triples(),
					LastLSN: p.Engine.Log.LastLSN(),
				},
				Links: p.KG.LinksSnapshot(),
			}
			got := reopenState(t, cfg, dir)
			got.Entities, got.Search = nil, nil // closed stores can't be dumped for want
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reopen after in-flight Close differs:\n  got:  lsn=%d kg=%d replica=%d links=%d\n  want: lsn=%d kg=%d replica=%d links=%d",
					got.LastLSN, len(got.KG), len(got.Replica), len(got.Links),
					want.LastLSN, len(want.KG), len(want.Replica), len(want.Links))
			}
		})
	}
}

// checkReplayMatchesKG replays p's log from genesis into a fresh graph and
// link table and requires them to equal the KG's.
func checkReplayMatchesKG(t *testing.T, p *Platform, step string) {
	t.Helper()
	e := graphengine.New(p.Engine.Log)
	g := triple.NewGraph()
	links := &Platform{}
	e.RegisterAgent(graphengine.GraphAgent{Graph: g})
	e.RegisterAgent(graphengine.FuncAgent{AgentName: "link-table", Fn: links.applyLinkOp})
	if err := e.CatchUp(); err != nil {
		t.Fatalf("%s: replay from genesis: %v", step, err)
	}
	if !reflect.DeepEqual(g.Triples(), p.KG.Graph.Triples()) {
		t.Fatalf("%s: replay from genesis holds %d entities, the KG %d, and they differ", step, g.Len(), p.KG.Graph.Len())
	}
	if got, want := linkTable(links), p.KG.LinksSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: replay from genesis has %d links, the KG %d, and they differ", step, len(got), len(want))
	}
}

// diskRecords counts the records in the segments the record log under dir
// lists in its manifest: what its Len would report on reopen.
func diskRecords(t *testing.T, dir string) int {
	t.Helper()
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range strings.Fields(string(manifest)) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n += triple.CountRecords(data)
	}
	return n
}

// TestPublishGroupIsOneOp: on the durable layout, which opens no staging
// store, each publish group — a batch of three sources, a batch that
// deletes, a held publisher's backlog of several batches, the group that
// heals four failed ones — appends exactly one op to the log and one record
// to the record log, its payload included, and replaying the log from
// genesis reaches the KG.
func TestPublishGroupIsOneOp(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			p, err := Open(durableOptions(cfg, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if _, err := os.Stat(filepath.Join(dir, "staging")); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Open made a staging directory (stat: %v)", err)
			}
			// step runs publish, which reports how many groups it published,
			// and checks what those groups logged.
			step := func(name string, publish func() int) {
				t.Helper()
				lsn, records := p.Engine.Log.LastLSN(), diskRecords(t, filepath.Join(dir, "oplog"))
				groups := publish()
				if got := p.Engine.Log.LastLSN() - lsn; got != uint64(groups) {
					t.Fatalf("%s: %d groups appended %d ops", name, groups, got)
				}
				if got := diskRecords(t, filepath.Join(dir, "oplog")) - records; got != groups {
					t.Fatalf("%s: %d groups appended %d records", name, groups, got)
				}
				checkReplayMatchesKG(t, p, name)
			}
			consume := func(b []ingest.Delta) func() int {
				return func() int {
					if _, err := p.ConsumeDeltas(b); err != nil {
						t.Fatal(err)
					}
					return 1
				}
			}
			batches := churnStream(3, 3, 8)
			step("three sources", consume(batches[0]))
			step("updates", consume(batches[1]))
			step("deletes", consume(batches[2]))
			if ops := p.Engine.Log.Read(p.Engine.Log.LastLSN()-1, 0); len(ops) != 1 || len(ops[0].Deletes) == 0 || len(ops[0].EntityIDs) == 0 {
				t.Fatalf("the delete batch's op = %+v, want one op with a payload and deletes", ops)
			}
			step("held backlog", func() int {
				f, err := p.Feed(FeedOptions{})
				if err != nil {
					t.Fatal(err)
				}
				backlog := churnBatches(5, 12)
				before := f.Stats().PublishGroups
				entered, release := make(chan struct{}), make(chan struct{})
				var held atomic.Bool
				p.publishHook = func() error {
					if !held.Swap(true) {
						close(entered)
						<-release
					}
					return nil
				}
				defer func() { p.publishHook = nil }()
				results := []<-chan construct.BatchResult{f.Submit(backlog[0])}
				<-entered
				for _, b := range backlog[1:] {
					results = append(results, f.Submit(b))
				}
				// Commits run in order, so the last batch's value in the KG
				// means the others already wait in the publish queue.
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					kgID, ok := p.KG.Lookup("src:e0")
					if e := p.KG.Graph.GetShared(kgID); ok && e != nil && e.First("popularity").Float64() == float64(len(backlog)-1) {
						break
					}
					if time.Now().After(deadline) {
						close(release)
						t.Fatal("the backlog never committed behind the held publisher")
					}
				}
				close(release)
				for i, ch := range results {
					if res := <-ch; res.Err != nil {
						t.Fatalf("batch %d: %v", i, res.Err)
					}
				}
				groups := f.Stats().PublishGroups - before
				if groups >= len(backlog) {
					t.Fatalf("%d batches published in %d groups: the backlog did not group", len(backlog), groups)
				}
				return groups
			})
			// Failed groups leave their entities and link keys pending; the
			// group that heals publishes them with its own batch in one op.
			churn := churnBatches(6, 12)
			failErr := errors.New("injected publish failure")
			p.publishHook = func() error { return failErr }
			for _, b := range churn[:4] {
				if _, err := p.ConsumeDeltas(b); !errors.Is(err, failErr) {
					t.Fatalf("a failing group returned %v, want the injected failure", err)
				}
			}
			p.publishHook = nil
			step("heal after failures", consume(churn[4]))
		})
	}
}
