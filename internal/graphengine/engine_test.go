package graphengine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"saga/internal/oplog"
	"saga/internal/storage"
	"saga/internal/storage/disk"
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

// agentLSN returns the LSN the named agent has replayed through.
func (e *Engine) agentLSN(name string) uint64 {
	e.catchupMu.Lock()
	defer e.catchupMu.Unlock()
	for _, a := range e.replayers() {
		if a.Name() == name {
			return a.lsn
		}
	}
	return 0
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
	for _, agent := range []string{"entity-store", "graph-replica"} {
		if lsn := e.agentLSN(agent); lsn != 1 {
			t.Fatalf("agent %s lsn = %d", agent, lsn)
		}
	}
}

func TestDeletePropagates(t *testing.T) {
	e := newEngine(t)
	es := entitystore.New()
	g := triple.NewGraph()
	e.RegisterAgent(EntityStoreAgent{Store: es})
	e.RegisterAgent(GraphAgent{Graph: g})
	e.Publish(oplog.OpUpsert, "s", []*triple.Entity{testEntity("kg:E1", "Gone Soon")})
	e.PublishOp(oplog.Op{Kind: oplog.OpUpsert, Deletes: []triple.EntityID{"kg:E1"}}, []*triple.Entity{testEntity("kg:E2", "Stays")})
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got, _ := es.Get("kg:E1"); got != nil {
		t.Fatal("entity survived delete")
	}
	if g.Has("kg:E1") {
		t.Fatal("graph replica kept a deleted entity")
	}
	if got, _ := es.Get("kg:E2"); got == nil || !g.Has("kg:E2") {
		t.Fatal("the payload riding with the delete was not applied")
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
	if e.agentLSN("entity-store") != 1 {
		t.Fatal("healthy agent blocked by flaky agent")
	}
	if e.agentLSN("flaky") != 0 {
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
		if got := e.agentLSN(fmt.Sprintf("recorder%d", i)); got != uint64(ops) {
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
	if got := e.agentLSN("late-failer"); got != 2 {
		t.Fatalf("late-failer lsn = %d", got)
	}
	if got := e.agentLSN("early-failer"); got != 1 {
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

// countingLog counts the records read back from a record log.
type countingLog struct {
	storage.RecordLog
	reads int
}

func (c *countingLog) Read(i int) ([]byte, error) {
	c.reads++
	return c.RecordLog.Read(i)
}

// openDiskLog opens a log over a disk record log under dir, counting reads.
func openDiskLog(t *testing.T, dir string) (*oplog.Log, *countingLog) {
	t.Helper()
	rec, err := disk.OpenRecordLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingLog{RecordLog: rec}
	log, err := oplog.OpenStore(counted)
	if err != nil {
		t.Fatal(err)
	}
	return log, counted
}

// failFirstRead fails every read of a record log's first record.
type failFirstRead struct{ storage.RecordLog }

func (f failFirstRead) Read(i int) ([]byte, error) {
	if i == 0 {
		return nil, fmt.Errorf("injected read failure")
	}
	return f.RecordLog.Read(i)
}

// TestCatchUpUnreadableOpStopsEveryAgent: an op whose record cannot be read
// back stops every agent that needs it at that op, with the error naming
// its LSN; no agent skips it to apply the ops after it.
func TestCatchUpUnreadableOpStopsEveryAgent(t *testing.T) {
	rec, err := disk.OpenRecordLog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	log, err := oplog.OpenStore(failFirstRead{rec})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, id := range []string{"kg:E1", "kg:E2"} {
		frames, err := encodeEntities([]*triple.Entity{testEntity(id, "X")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(oplog.Op{EntityIDs: []triple.EntityID{triple.EntityID(id)}}, frames); err != nil {
			t.Fatal(err)
		}
	}
	e := New(log)
	e.RegisterAgent(EntityStoreAgent{Store: entitystore.New()})
	e.RegisterAgent(GraphAgent{Graph: triple.NewGraph()})
	if err := e.CatchUp(); err == nil || !strings.Contains(err.Error(), "at lsn 1:") {
		t.Fatalf("CatchUp = %v, want the read failure at lsn 1", err)
	}
	for _, name := range []string{"entity-store", "graph-replica"} {
		if lsn := e.agentLSN(name); lsn != 0 {
			t.Fatalf("agent %s replayed to lsn %d past an op it never applied", name, lsn)
		}
	}
}

// TestCatchUpDecodesEachOpOnce: replay hands a just-published op's payload
// to the agents without reading the log's records, reads nothing when every
// agent is already past the op, and reads (and decodes) an older op's
// payload once however many agents apply it.
func TestCatchUpDecodesEachOpOnce(t *testing.T) {
	log, records := openDiskLog(t, t.TempDir())
	defer log.Close()
	e := New(log)
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
	catchUp := func(wantReads int) {
		t.Helper()
		if err := e.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if records.reads != wantReads {
			t.Fatalf("%d records read, want %d", records.reads, wantReads)
		}
	}
	const n = 10
	publish(n)
	catchUp(0)
	catchUp(0) // every agent is past every op
	// A late agent needs the whole log, the others only the new op: the new
	// op is handed over, each older op is read once.
	e.RegisterAgent(FuncAgent{AgentName: "late", Fn: func(oplog.Op, Payload) error { return nil }})
	publish(1)
	catchUp(n)
}

// TestPayloadRoundTrip: a payload published to a durable log comes back
// from its record after a reopen, frame for frame, to an engine that never
// saw it published.
func TestPayloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	log, _ := openDiskLog(t, dir)
	in := []*triple.Entity{testEntity("kg:E1", "A"), testEntity("kg:E2", "B")}
	if _, err := New(log).Publish(oplog.OpUpsert, "s", in); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log, records := openDiskLog(t, dir)
	defer log.Close()
	e := New(log)
	var got Payload
	e.RegisterAgent(FuncAgent{AgentName: "holder", Fn: func(_ oplog.Op, p Payload) error {
		got = p
		return nil
	}})
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if records.reads != 1 || len(got.Entities) != len(in) {
		t.Fatalf("replay read %d records and handed %d entities, want 1 and %d", records.reads, len(got.Entities), len(in))
	}
	for i, ent := range in {
		want, _ := ent.MarshalBinary()
		if !bytes.Equal(got.Records[i], want) || got.Entities[i].Name() != ent.Name() {
			t.Fatalf("entity %d came back as %x, want %x", i, got.Records[i], want)
		}
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

// TestOpWithoutPayloadIsNoOpForStores: an op carrying only link deltas
// reads no payload and leaves the entity stores as they are, but advances
// every agent past it.
func TestOpWithoutPayloadIsNoOpForStores(t *testing.T) {
	e := newEngine(t)
	es := entitystore.New()
	e.RegisterAgent(EntityStoreAgent{Store: es})
	links := map[triple.EntityID]triple.EntityID{"s:1": "kg:E1"}
	if _, err := e.PublishOp(oplog.Op{Kind: oplog.OpUpsert, Links: links}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if e.agentLSN("entity-store") != 1 || es.Len() != 0 {
		t.Fatalf("entity store at lsn %d holds %d entities, want lsn 1 and none", e.agentLSN("entity-store"), es.Len())
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
