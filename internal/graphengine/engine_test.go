package graphengine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"saga/internal/oplog"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

func testEntity(id, name string) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(id))
	e.Add(triple.New("", triple.PredName, triple.String(name)).WithSource("src", 0.9))
	return e
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	return New(oplog.NewVolatile())
}

func TestPublishAndCatchUp(t *testing.T) {
	e := newEngine(t)
	es := entitystore.New()
	g := triple.NewGraph()
	e.RegisterAgent(EntityStoreAgent{Store: es})
	e.RegisterAgent(GraphAgent{Graph: g})

	if _, err := e.Publish(oplog.OpUpsert, "musicdb", []*triple.Entity{
		testEntity("kg:E1", "Adele"), testEntity("kg:E2", "Sia"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// All stores derived the same update.
	if got, _ := es.Get("kg:E1"); got == nil || got.Name() != "Adele" {
		t.Fatalf("entity store: %+v", got)
	}
	if !g.Has("kg:E2") {
		t.Fatal("graph replica missing entity")
	}
	for _, agent := range e.Agents() {
		if lsn := e.Metadata.LSN(agent); lsn != 1 {
			t.Fatalf("agent %s lsn = %d", agent, lsn)
		}
		if e.Freshness(agent) != 0 {
			t.Fatalf("agent %s behind", agent)
		}
	}
	if e.Metadata.MinLSN() != 1 {
		t.Fatalf("min lsn = %d", e.Metadata.MinLSN())
	}
}

func TestDeletePropagates(t *testing.T) {
	e := newEngine(t)
	es := entitystore.New()
	g := triple.NewGraph()
	e.RegisterAgent(EntityStoreAgent{Store: es})
	e.RegisterAgent(GraphAgent{Graph: g})
	e.Publish(oplog.OpUpsert, "s", []*triple.Entity{testEntity("kg:E1", "Gone Soon")})
	e.PublishDelete("s", []triple.EntityID{"kg:E1"})
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got, _ := es.Get("kg:E1"); got != nil {
		t.Fatal("entity survived delete")
	}
	if g.Has("kg:E1") {
		t.Fatal("graph replica kept a deleted entity")
	}
}

func TestLateRegisteredAgentReplaysFromStart(t *testing.T) {
	e := newEngine(t)
	e.Publish(oplog.OpUpsert, "s", []*triple.Entity{testEntity("kg:E1", "First")})
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// A store onboarded later must converge to the same state.
	es := entitystore.New()
	e.RegisterAgent(EntityStoreAgent{Store: es})
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got, _ := es.Get("kg:E1"); got == nil {
		t.Fatal("late agent did not replay history")
	}
}

func TestFailingAgentDoesNotAdvance(t *testing.T) {
	e := newEngine(t)
	es := entitystore.New()
	e.RegisterAgent(EntityStoreAgent{Store: es})
	calls := 0
	e.RegisterAgent(FuncAgent{AgentName: "flaky", Fn: func(op oplog.Op, _ Payload) error {
		calls++
		return fmt.Errorf("store down")
	}})
	e.Publish(oplog.OpUpsert, "s", []*triple.Entity{testEntity("kg:E1", "X")})
	if err := e.CatchUp(); err == nil {
		t.Fatal("agent failure swallowed")
	}
	// The healthy agent advanced, the flaky one did not.
	if e.Metadata.LSN("entity-store") != 1 {
		t.Fatal("healthy agent blocked by flaky agent")
	}
	if e.Metadata.LSN("flaky") != 0 {
		t.Fatal("flaky agent advanced despite error")
	}
	// Retry replays the same op (at-least-once, in order).
	e.CatchUp()
	if calls != 2 {
		t.Fatalf("flaky agent calls = %d, want 2", calls)
	}
}

// TestCatchUpParallelOrderAcrossChunks: over a long log, every agent must see
// every op exactly once, in strict LSN order.
func TestCatchUpParallelOrderAcrossChunks(t *testing.T) {
	e := newEngine(t)
	const ops = 263
	type seen struct{ lsns []uint64 }
	records := make([]*seen, 3)
	for i := range records {
		rec := &seen{}
		records[i] = rec
		e.RegisterAgent(FuncAgent{
			AgentName: fmt.Sprintf("recorder%d", i),
			Fn: func(op oplog.Op, _ Payload) error {
				rec.lsns = append(rec.lsns, op.LSN)
				return nil
			},
		})
	}
	for n := 0; n < ops; n++ {
		if _, err := e.Publish(oplog.OpUpsert, "s", []*triple.Entity{
			testEntity(fmt.Sprintf("kg:E%d", n), "X"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range records {
		if len(rec.lsns) != ops {
			t.Fatalf("agent %d applied %d ops, want %d", i, len(rec.lsns), ops)
		}
		for j, lsn := range rec.lsns {
			if lsn != uint64(j+1) {
				t.Fatalf("agent %d op %d has lsn %d (out of order)", i, j, lsn)
			}
		}
		if got := e.Metadata.LSN(fmt.Sprintf("recorder%d", i)); got != uint64(ops) {
			t.Fatalf("agent %d lsn = %d", i, got)
		}
	}
}

// TestCatchUpDeterministicFirstError: with several agents failing at
// different points, the returned error must be the failure at the lowest LSN
// (ties broken by registration order) on every schedule — the error the
// sequential replay reported.
func TestCatchUpDeterministicFirstError(t *testing.T) {
	e := newEngine(t)
	failAt := func(name string, lsn uint64) {
		e.RegisterAgent(FuncAgent{AgentName: name, Fn: func(op oplog.Op, _ Payload) error {
			if op.LSN == lsn {
				return fmt.Errorf("%s down", name)
			}
			return nil
		}})
	}
	failAt("late-failer", 3)
	failAt("early-failer", 2)
	failAt("tied-failer", 2)
	for n := 0; n < 4; n++ {
		if _, err := e.Publish(oplog.OpUpsert, "s", []*triple.Entity{
			testEntity(fmt.Sprintf("kg:E%d", n), "X"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	err := e.CatchUp()
	if err == nil {
		t.Fatal("agent failures swallowed")
	}
	want := "graphengine: agent early-failer at lsn 2: early-failer down"
	if err.Error() != want {
		t.Fatalf("first error = %q, want %q", err, want)
	}
	// Each agent holds exactly at its own failure point.
	if got := e.Metadata.LSN("late-failer"); got != 2 {
		t.Fatalf("late-failer lsn = %d", got)
	}
	if got := e.Metadata.LSN("early-failer"); got != 1 {
		t.Fatalf("early-failer lsn = %d", got)
	}
}

// TestCatchUpFailedAgentStopsMidChunk: after an agent's first error it must
// not see the remaining ops of the chunk; it resumes from its recorded LSN —
// re-attempting the failed op first — on the next CatchUp.
func TestCatchUpFailedAgentStopsMidChunk(t *testing.T) {
	e := newEngine(t)
	var applied []uint64
	healthy := true
	e.RegisterAgent(FuncAgent{AgentName: "flaky", Fn: func(op oplog.Op, _ Payload) error {
		if !healthy && op.LSN >= 2 {
			return fmt.Errorf("store down")
		}
		applied = append(applied, op.LSN)
		return nil
	}})
	healthy = false
	for n := 0; n < 5; n++ {
		if _, err := e.Publish(oplog.OpUpsert, "s", []*triple.Entity{
			testEntity(fmt.Sprintf("kg:E%d", n), "X"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CatchUp(); err == nil {
		t.Fatal("failure swallowed")
	}
	if len(applied) != 1 || applied[0] != 1 {
		t.Fatalf("applied after failure = %v, want just lsn 1", applied)
	}
	healthy = true
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if len(applied) != 5 {
		t.Fatalf("applied after recovery = %v", applied)
	}
	for j, lsn := range applied {
		if lsn != uint64(j+1) {
			t.Fatalf("replay out of order: %v", applied)
		}
	}
}

// countingStore counts reads of staged payloads.
type countingStore struct {
	ObjectStore
	gets int
}

func (s *countingStore) Get(key string) ([]byte, bool) {
	s.gets++
	return s.ObjectStore.Get(key)
}

// TestCatchUpDecodesEachOpOnce: replay reads (and decodes) an op's staged
// payload once however many agents apply it, and not at all when every agent
// is already past the op.
func TestCatchUpDecodesEachOpOnce(t *testing.T) {
	staging := &countingStore{ObjectStore: NewObjectStore()}
	e := NewWithStaging(oplog.NewVolatile(), staging)
	e.RegisterAgent(EntityStoreAgent{Store: entitystore.New()})
	e.RegisterAgent(GraphAgent{Graph: triple.NewGraph()})
	e.RegisterAgent(FuncAgent{AgentName: "noop", Fn: func(oplog.Op, Payload) error { return nil }})
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := e.Publish(oplog.OpUpsert, "s", []*triple.Entity{testEntity(fmt.Sprintf("kg:E%d", i), "X")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	catchUp := func(wantGets int) {
		t.Helper()
		if err := e.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if staging.gets != wantGets {
			t.Fatalf("staging Get called %d times, want %d", staging.gets, wantGets)
		}
	}
	const n = 10
	publish(n)
	catchUp(n)
	catchUp(n) // every agent is past every op
	// A late agent needs the whole log, the others only the new op: each op
	// is still read once.
	e.RegisterAgent(FuncAgent{AgentName: "late", Fn: func(oplog.Op, Payload) error { return nil }})
	publish(1)
	catchUp(n + n + 1)
}

func TestStagingRoundTrip(t *testing.T) {
	s := NewObjectStore()
	key, err := s.Stage([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "payload" {
		t.Fatalf("staging = %q %v", got, ok)
	}
	s.Delete(key)
	if _, ok := s.Get(key); ok {
		t.Fatal("payload survived delete")
	}
}

func TestEncodeDecodeEntities(t *testing.T) {
	in := []*triple.Entity{testEntity("kg:E1", "A"), testEntity("kg:E2", "B")}
	payload, err := encodeEntities(in)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeEntities(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Entities; len(out) != 2 || len(p.Records) != 2 || out[0].ID != "kg:E1" || out[1].Name() != "B" {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := decodeEntities([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestCheckpointIsNoOpForStores(t *testing.T) {
	e := newEngine(t)
	es := entitystore.New()
	e.RegisterAgent(EntityStoreAgent{Store: es})
	if _, err := e.Publish(oplog.OpCheckpoint, "construction", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if e.Metadata.LSN("entity-store") != 1 {
		t.Fatal("checkpoint did not advance lsn")
	}
}

// TestReplayedRecordsStayFrozen: GraphAgent installs the records replay
// decoded without cloning them, so the replica, the other agents' view of
// the payload and earlier snapshots all hold the same pointers. Writes to
// the replica must go on replacing records, never touching them: run under
// -race, an in-place write would race the readers below.
func TestReplayedRecordsStayFrozen(t *testing.T) {
	e := newEngine(t)
	replica := triple.NewGraph()
	held := make(map[triple.EntityID]*triple.Entity) // another agent's view, kept past Apply
	e.RegisterAgent(GraphAgent{Graph: replica})
	e.RegisterAgent(EntityStoreAgent{Store: entitystore.New()})
	e.RegisterAgent(FuncAgent{AgentName: "holder", Fn: func(_ oplog.Op, p Payload) error {
		for _, ent := range p.Entities {
			held[ent.ID] = ent
		}
		return nil
	}})
	for k := 0; k < 40; k++ {
		batch := make([]*triple.Entity, 8)
		for j := range batch {
			batch[j] = person(fmt.Sprintf("kg:E%03d", (k*5+j)%120), k)
		}
		if _, err := e.Publish(oplog.OpUpsert, "src00", batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	snap := replica.Snapshot()
	want := make(map[triple.EntityID][]byte, len(held))
	for id, ent := range held {
		if replica.GetShared(id) != ent {
			t.Fatalf("%s: the replica holds a copy, not the replayed record", id)
		}
		want[id], _ = ent.MarshalBinary()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for id := range want {
			replica.Update(id, func(ent *triple.Entity) {
				ent.Triples[0].Object = triple.String("rewritten")
				ent.Triples[1].Sources[0] = "elsewhere"
				ent.AddFact("touched", triple.Bool(true))
			})
		}
	}()
	go func() {
		defer wg.Done()
		for id, ent := range held {
			if got, _ := ent.MarshalBinary(); !bytes.Equal(got, want[id]) {
				t.Errorf("%s: another agent's decoded view changed under a replica write", id)
			}
			if got, _ := snap.GetShared(id).MarshalBinary(); !bytes.Equal(got, want[id]) {
				t.Errorf("%s: an earlier snapshot changed under a replica write", id)
			}
		}
	}()
	wg.Wait()
	for id, ent := range held {
		if got, _ := ent.MarshalBinary(); !bytes.Equal(got, want[id]) {
			t.Errorf("%s: decoded view changed", id)
		}
		if got, _ := snap.GetShared(id).MarshalBinary(); !bytes.Equal(got, want[id]) {
			t.Errorf("%s: snapshot changed", id)
		}
		if now := replica.GetShared(id); now == ent || now.First("touched").IsNull() {
			t.Errorf("%s: the replica did not take the update", id)
		}
	}
}

// FuzzDecodeCheckpoint's seed corpus is under testdata/fuzz/.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, ents, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		// What was accepted survives a round trip.
		again, err := EncodeCheckpoint(meta, ents)
		if err != nil {
			t.Fatal(err)
		}
		meta2, ents2, err := DecodeCheckpoint(again)
		if err != nil || meta2.LSN != meta.LSN || len(meta2.Links) != len(meta.Links) || len(ents2) != len(ents) {
			t.Fatalf("accepted checkpoint does not round-trip: %v", err)
		}
	})
}
