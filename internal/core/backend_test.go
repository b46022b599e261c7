package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"saga/internal/ingest"
	"saga/internal/triple"
	"saga/internal/workload"
)

// testBackend selects the storage backend the core test suite runs against:
//
//	go test ./internal/core -backend=disk
//
// Every test built on newTestPlatform then exercises the full platform over
// that backend; CI runs the suite once per backend, which is the byte-level
// half of the cross-backend identity guarantee (the other half is
// TestBackendsByteIdentical, which compares the backends directly).
var testBackend = flag.String("backend", "", "storage backend for platform tests (empty = memory)")

// newTestPlatform builds a platform on the -backend backend, rooting durable
// backends in a per-test temp directory, and closes it when the test ends.
func newTestPlatform(t testing.TB, opts Options) *Platform {
	t.Helper()
	if *testBackend != "" {
		opts.Storage.Backend = *testBackend
		opts.Storage.DataDir = t.TempDir()
	}
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("close platform: %v", err)
		}
	})
	return p
}

// backendState flattens everything a backend stores into comparable form.
type backendState struct {
	KG       []triple.Triple
	Replica  []triple.Triple
	Entities []triple.EntityID
	Search   []string
	LastLSN  uint64
}

func stateOf(t *testing.T, p *Platform) backendState {
	t.Helper()
	p.RefreshServing()
	st := backendState{
		KG:      p.KG.Graph.Triples(),
		Replica: p.GraphReplica.Triples(),
		LastLSN: p.Engine.Log.LastLSN(),
	}
	if err := p.EntityStore.Range(func(e *triple.Entity) bool {
		st.Entities = append(st.Entities, e.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(st.Entities, func(i, j int) bool { return st.Entities[i] < st.Entities[j] })
	for _, h := range p.Live.Serving().SearchText("name", 20) {
		st.Search = append(st.Search, h.ID)
	}
	return st
}

// backendBatches is a small stream touching every publish shape: new
// entities, updates, typos and duplicates, and volatile churn.
func backendBatches() [][]ingest.Delta {
	batches := make([][]ingest.Delta, 0, 4)
	for r := 0; r < 3; r++ {
		spec := workload.SourceSpec{
			Name: "src", Count: 20, Offset: r * 5,
			DupRate: 0.05, TypoRate: 0.1, RichFacts: 3, Seed: int64(r + 1),
		}
		if r == 0 {
			batches = append(batches, []ingest.Delta{spec.Delta()})
		} else {
			batches = append(batches, []ingest.Delta{{Source: "src", Updated: spec.Entities()}})
		}
	}
	churn := workload.SourceSpec{Name: "src", Count: 10, Seed: 42, RichFacts: 1}
	return append(batches, []ingest.Delta{{Source: "src", Volatile: churn.Entities()}})
}

// TestBackendsByteIdentical feeds the same delta stream through a platform
// on each storage medium and requires the final KG, graph replica, entity
// store contents, text search results, and log position to match exactly: a
// storage medium may change where bytes live, never what they are.
func TestBackendsByteIdentical(t *testing.T) {
	batches := backendBatches()
	run := func(backend string) backendState {
		opts := Options{Construction: ConstructionOptions{Workers: 2}}
		if backend != "" {
			opts.Storage.Backend = backend
			opts.Storage.DataDir = t.TempDir()
		}
		p, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for _, b := range batches {
			if _, err := p.ConsumeDeltas(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return stateOf(t, p)
	}

	mem := run("")
	disk := run("disk")
	if !reflect.DeepEqual(mem, disk) {
		t.Errorf("memory and disk backends diverged:\n  memory: lsn=%d entities=%d kg=%d replica=%d search=%v\n  disk:   lsn=%d entities=%d kg=%d replica=%d search=%v",
			mem.LastLSN, len(mem.Entities), len(mem.KG), len(mem.Replica), mem.Search,
			disk.LastLSN, len(disk.Entities), len(disk.KG), len(disk.Replica), disk.Search)
	}
}

// TestDiskBackendRecovery closes a disk-backed platform and reopens its data
// directory: the oplog (payloads included) and entity store must come back,
// and replaying the log must rebuild the same replica.
func TestDiskBackendRecovery(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Options{Storage: StorageOptions{Backend: "disk", DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 8, Seed: 3, RichFacts: 2}.Delta()); err != nil {
		t.Fatal(err)
	}
	lsn := p.Engine.Log.LastLSN()
	want := p.GraphReplica.Triples()
	wantEntities := p.EntityStore.Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Storage: StorageOptions{Backend: "disk", DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Engine.Log.LastLSN(); got != lsn {
		t.Fatalf("recovered lsn = %d, want %d", got, lsn)
	}
	if got := re.EntityStore.Len(); got != wantEntities {
		t.Fatalf("recovered entity store has %d entities, want %d", got, wantEntities)
	}
	if err := re.Engine.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.GraphReplica.Triples(), want) {
		t.Fatal("replica after recovery differs from pre-close replica")
	}
}

// TestDurableLayoutsStageIdenticalBytes: the hybrid configuration (memory
// backend + Durability.Dir) and the disk backend open one durable layout, so
// the same synchronous input writes byte-identical log segments, payloads
// included: a record depends only on the input.
func TestDurableLayoutsStageIdenticalBytes(t *testing.T) {
	hybrid, diskDir := t.TempDir(), t.TempDir()
	for _, opts := range []Options{
		{Durability: DurabilityOptions{Dir: hybrid}},
		{Storage: StorageOptions{Backend: "disk", DataDir: diskDir}},
	} {
		p, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backendBatches() {
			if _, err := p.ConsumeDeltas(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(hybrid, "oplog", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("hybrid platform wrote no log segments")
	}
	for _, seg := range segs {
		want, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(diskDir, "oplog", filepath.Base(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("oplog/%s: disk backend wrote %d bytes, hybrid %d, and they differ", filepath.Base(seg), len(got), len(want))
		}
	}
	if diskSegs, _ := filepath.Glob(filepath.Join(diskDir, "oplog", "*.seg")); len(diskSegs) != len(segs) {
		t.Errorf("disk backend wrote %d log segments, hybrid %d", len(diskSegs), len(segs))
	}
}

// TestOpenStorageBackends pins the two media Open accepts.
func TestOpenStorageBackends(t *testing.T) {
	for _, tc := range []struct {
		name    string
		storage StorageOptions
		errHas  []string // substrings of the error; nil means Open succeeds
	}{
		{"default", StorageOptions{}, nil},
		{"memory", StorageOptions{Backend: "memory"}, nil},
		{"disk", StorageOptions{Backend: "disk", DataDir: t.TempDir()}, nil},
		{"disk without data dir", StorageOptions{Backend: "disk"}, []string{"DataDir"}},
		{"unknown", StorageOptions{Backend: "nope"}, []string{"nope", `"memory"`, `"disk"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Open(Options{Storage: tc.storage})
			if tc.errHas != nil {
				if err == nil {
					p.Close() //saga:errok — the open is the failure under test
					t.Fatal("Open succeeded")
				}
				for _, sub := range tc.errHas {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("error %q does not name %s", err, sub)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 8, Seed: 3}.Delta()); err != nil {
				t.Fatal(err)
			}
			if got, want := p.DurabilityStats().Durable, tc.storage.Backend == "disk"; got != want {
				t.Errorf("Durable = %v, want %v", got, want)
			}
		})
	}
	// "memory" is the default spelled out: the same input reaches the same
	// state.
	states := make([]backendState, 2)
	for i, backend := range []string{"", "memory"} {
		p, err := Open(Options{Storage: StorageOptions{Backend: backend}})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backendBatches() {
			if _, err := p.ConsumeDeltas(b); err != nil {
				t.Fatal(err)
			}
		}
		states[i] = stateOf(t, p)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Error(`Backend "memory" and the default backend reached different states`)
	}
}

// TestOpenFailureClosesStores: an Open that fails after opening some stores
// closes them again. A regular file where the checkpoint directory belongs
// fails Open after the record log is open; it used to
// leave them (and the entity KV) open.
func TestOpenFailureClosesStores(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoints"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := openFDs()
	if p, err := Open(Options{Storage: StorageOptions{Backend: "disk", DataDir: dir}}); err == nil {
		p.Close() //saga:errok — the open is the failure under test
		t.Fatal("Open succeeded with a file where the checkpoint directory belongs")
	}
	if after := openFDs(); after != before {
		t.Fatalf("failed Open left %d descriptors open", after-before)
	}
}

// TestDiskEntityKVRebuiltAtOpen: the disk backend's entity KV starts empty at
// every Open and recovery refills it from the checkpoint and the log, so
// reopening does not grow entities.dat and the store holds exactly the KG's
// entities.
func TestDiskEntityKVRebuiltAtOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Storage:    StorageOptions{Backend: "disk", DataDir: dir},
		Durability: DurabilityOptions{CheckpointEvery: 8},
	}
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durabilityBatches(30) {
		if _, err := p.ConsumeDeltas(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	size := int64(-1)
	for reopen := 1; reopen <= 3; reopen++ {
		re, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := re.EntityStore.Len(), re.KG.Graph.Len(); got != want {
			t.Errorf("reopen %d: entity store holds %d entities, the KG %d", reopen, got, want)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, "entities.dat"))
		if err != nil {
			t.Fatal(err)
		}
		if size >= 0 && st.Size() != size {
			t.Fatalf("reopen %d: entities.dat is %d bytes, %d after the previous reopen", reopen, st.Size(), size)
		}
		size = st.Size()
	}
}
