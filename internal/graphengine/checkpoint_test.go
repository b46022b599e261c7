package graphengine

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"saga/internal/oplog"
	"saga/internal/pmap"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

// person builds an entity of the size the ingest path moves (saga-e2e's
// triple.bytes_per_entity is ~560): ten provenance-carrying facts. version
// varies the content, not the shape.
func person(id string, version int) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(id))
	e.Add(
		triple.New("", triple.PredType, triple.String("human")).WithSource("src00", 0.9),
		triple.New("", triple.PredName, triple.String(fmt.Sprintf("Person %s v%d", id, version))).WithSource("src00", 0.9),
		triple.New("", triple.PredAlias, triple.String("P. "+id)).WithSource("src01", 0.7),
		triple.New("", "birth_year", triple.Int(int64(1900+version%100))).WithSource("src00", 0.9),
		triple.New("", "occupation", triple.String("occupation-"+fmt.Sprint(version%7))).WithSource("src02", 0.8),
		triple.New("", "description", triple.String("a person generated for the checkpoint tests")).WithSource("src01", 0.7),
		triple.New("", "birth_place", triple.Ref(triple.EntityID(fmt.Sprint("kg:place-", version%13)))).WithSource("src00", 0.9),
		triple.New("", "spouse", triple.Ref(triple.EntityID(fmt.Sprint("kg:E", version)))).WithSource("src02", 0.8),
		triple.NewRel("", "educated_at", "r1", "school", triple.Ref("kg:school")).WithSource("src00", 0.9),
		triple.NewRel("", "educated_at", "r1", "year", triple.Int(int64(1990+version%30))).WithSource("src00", 0.9),
	)
	return e
}

// storeView is one set of stores replayed from a log, for comparing replays.
type storeView struct {
	es    *entitystore.Store
	g     *triple.Graph
	links map[triple.EntityID]triple.EntityID
}

func registerView(e *Engine, suffix string) *storeView {
	v := &storeView{es: entitystore.New(), g: triple.NewGraph(),
		links: make(map[triple.EntityID]triple.EntityID)}
	e.RegisterAgent(FuncAgent{AgentName: "es" + suffix, Fn: EntityStoreAgent{Store: v.es}.Apply})
	e.RegisterAgent(FuncAgent{AgentName: "g" + suffix, Fn: GraphAgent{Graph: v.g}.Apply})
	e.RegisterAgent(FuncAgent{AgentName: "links" + suffix, Fn: func(op oplog.Op, _ Payload) error {
		for src, tgt := range op.Links {
			v.links[src] = tgt
		}
		for _, src := range op.Unlinks {
			delete(v.links, src)
		}
		return nil
	}})
	return v
}

// digest renders every store's content in a canonical order.
func (v *storeView) digest(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	for _, tr := range v.g.Triples() {
		fmt.Fprintln(&b, "graph", tr.String(), tr.Sources, tr.Trust)
	}
	var stored []string
	if err := v.es.Range(func(e *triple.Entity) bool {
		data, _ := e.MarshalBinary()
		stored = append(stored, fmt.Sprintf("es %s %x", e.ID, data))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(stored)
	for _, s := range stored {
		fmt.Fprintln(&b, s)
	}
	var srcs []string
	for src, tgt := range v.links {
		srcs = append(srcs, fmt.Sprintf("link %s→%s", src, tgt))
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		fmt.Fprintln(&b, s)
	}
	return b.String()
}

// churnLog publishes a history with everything a base op must fold in:
// overwrites, deletes (alone and riding a payload), a re-created entity, an
// ID listed twice in one op, links, a re-link, an unlink and an op carrying
// nothing.
func churnLog(t *testing.T, e *Engine) {
	t.Helper()
	publish := func(op oplog.Op, ents ...*triple.Entity) {
		t.Helper()
		if _, err := e.PublishOp(op, ents); err != nil {
			t.Fatal(err)
		}
	}
	up := func(src string) oplog.Op { return oplog.Op{Kind: oplog.OpUpsert, Source: src} }
	ids := func(s ...triple.EntityID) []triple.EntityID { return s }

	op := up("src00")
	op.Links = map[triple.EntityID]triple.EntityID{"src00:a": "kg:A", "src00:b": "kg:B", "src00:c": "kg:C"}
	publish(op, person("kg:A", 1), person("kg:B", 1), person("kg:C", 1))
	publish(up("src01"), person("kg:B", 2), person("kg:D", 1))
	// kg:E twice in one op: first place, last version.
	publish(up("src02"), person("kg:E", 1), person("kg:F", 1), person("kg:E", 2))
	publish(oplog.Op{Kind: oplog.OpUpsert, Deletes: ids("kg:C", "kg:D"), Unlinks: ids("src00:c")})
	op = up("src00")
	op.Links = map[triple.EntityID]triple.EntityID{"src00:b": "kg:A", "src00:d": "kg:D"}
	publish(op, person("kg:D", 2)) // re-created after its delete
	publish(up("src01"), person("kg:F", 2))
	publish(oplog.Op{Kind: oplog.OpUpsert})
	// A payload and a delete in one op; kg:G never existed.
	publish(oplog.Op{Kind: oplog.OpUpsert, Deletes: ids("kg:G")}, person("kg:A", 3))
	publish(up("src02"), person("kg:H", 1), person("kg:B", 3))
}

// checkpointView checkpoints e's log from v, the state its agents replayed.
func checkpointView(t *testing.T, e *Engine, v *storeView) uint64 {
	t.Helper()
	w, err := e.Checkpoint(linkMap(v.links), v.g)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// linkMap returns links as the pmap Checkpoint takes.
func linkMap(links map[triple.EntityID]triple.EntityID) (m pmap.Map[triple.EntityID, triple.EntityID]) {
	o := new(pmap.Owner)
	for src, tgt := range links {
		m.Set(o, src, tgt)
	}
	return m
}

// TestCheckpointFrameIdentity: over a volatile and a durable log, a
// checkpoint leaves one op at the log's head LSN whose payload is every live
// entity's canonical frame, in the replica's order, and whose links are the
// table's; replay from genesis of the compacted log, and of it with ops
// appended past the base, equals the replay of the original history, store
// by store.
func TestCheckpointFrameIdentity(t *testing.T) {
	t.Run("volatile", func(t *testing.T) { testCheckpointFrameIdentity(t, oplog.NewVolatile()) })
	t.Run("disk", func(t *testing.T) {
		log, _ := openDiskLog(t, t.TempDir())
		defer log.Close()
		testCheckpointFrameIdentity(t, log)
	})
}

func testCheckpointFrameIdentity(t *testing.T, log *oplog.Log) {
	e := New(log)
	before := registerView(e, "")
	churnLog(t, e)
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	w := checkpointView(t, e, before)
	if ops := e.Log.Read(0, 0); len(ops) != 1 || ops[0].LSN != w || w != 9 {
		t.Fatalf("checkpoint at %d left %+v, want one op at lsn 9", w, ops)
	}
	live := slices.Collect(before.g.RangeShared)
	wantIDs := make([]triple.EntityID, len(live))
	for i, ent := range live {
		wantIDs[i] = ent.ID
	}
	want, err := encodeEntities(live)
	if err != nil {
		t.Fatal(err)
	}
	base, got, err := e.Log.Load(w)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("base payload differs from the live entities' frames (%v)\n got %x\nwant %x", err, got, want)
	}
	if !slices.Equal(base.EntityIDs, wantIDs) || len(base.Deletes) != 0 || len(base.Unlinks) != 0 {
		t.Errorf("base lists %v (deletes %v, unlinks %v), want %v", base.EntityIDs, base.Deletes, base.Unlinks, wantIDs)
	}
	if len(live) != 6 || !reflect.DeepEqual(base.Links, before.links) || len(base.Links) != 3 {
		t.Errorf("base holds %d entities and links %v, want 6 and %v", len(live), base.Links, before.links)
	}

	// Two ops past the base, then replay from genesis into fresh stores.
	if _, err := e.Publish(oplog.OpUpsert, "src00", []*triple.Entity{person("kg:A", 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PublishOp(oplog.Op{Kind: oplog.OpUpsert, Deletes: []triple.EntityID{"kg:H"}}, nil); err != nil {
		t.Fatal(err)
	}
	after := registerView(e, "-replayed")
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if a, b := before.digest(t), after.digest(t); a != b {
		t.Errorf("replay of the compacted log diverges\noriginal:\n%s\ncompacted:\n%s", a, b)
	}
}

// TestCheckpointRefusesAgentsBehind: a checkpoint is taken only from state
// every agent has replayed to; a refused one leaves the log as it was.
func TestCheckpointRefusesAgentsBehind(t *testing.T) {
	e := newEngine(t)
	v := registerView(e, "")
	churnLog(t, e)
	before := e.Log.Read(0, 0)
	if _, err := e.Checkpoint(linkMap(nil), v.g); err == nil {
		t.Fatal("a checkpoint with agents behind the log's head succeeded")
	}
	if got := e.Log.Read(0, 0); !reflect.DeepEqual(got, before) {
		t.Fatalf("a refused checkpoint changed the log: %d ops, want %d", len(got), len(before))
	}
}

// TestCheckpointDropsHandedPayloads: the last op's payload is still waiting
// to be handed over when a checkpoint rewrites the log to a base at its LSN.
// An agent registered afterwards must replay the base, not that op's
// payload, which holds only the entity it published.
func TestCheckpointDropsHandedPayloads(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Publish(oplog.OpUpsert, "src00", []*triple.Entity{person("kg:A", 1), person("kg:B", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Publish(oplog.OpUpsert, "src00", []*triple.Entity{person("kg:C", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(linkMap(nil), graphOf(person("kg:A", 1), person("kg:B", 1), person("kg:C", 1))); err != nil {
		t.Fatal(err)
	}
	g := triple.NewGraph()
	e.RegisterAgent(GraphAgent{Graph: g})
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got := g.IDs(); len(got) != 3 {
		t.Fatalf("late agent holds %v, want kg:A, kg:B and kg:C", got)
	}
}

// graphOf returns a graph holding ents.
func graphOf(ents ...*triple.Entity) *triple.Graph {
	g := triple.NewGraph()
	for _, ent := range ents {
		g.PutOwned(ent)
	}
	return g
}

// TestCheckpointAllocsIndependentOfSize: a checkpoint streams its base — the
// entity IDs and frames from one snapshot of the graph, the links from the
// link table's pmap — into a fresh segment of a disk record log, so what it
// allocates does not grow with the KG: 10 000 entities and 10 000 links cost
// what 100 of each do, give or take 8 KiB. At 10 000 a copy of the link
// table, a sorted key slice or an entity ID slice alone is 160 KB or more.
func TestCheckpointAllocsIndependentOfSize(t *testing.T) {
	alloced := func(n int) int64 {
		g := triple.NewGraph()
		links := make(map[triple.EntityID]triple.EntityID, n)
		for j := range n {
			ent := person(fmt.Sprintf("kg:E%05d", j), j)
			g.PutOwned(ent)
			links[triple.EntityID(fmt.Sprintf("src00:%05d", j))] = ent.ID
		}
		table := linkMap(links)
		log, _ := openDiskLog(t, t.TempDir())
		defer log.Close()
		e := New(log)
		one := []*triple.Entity{person("kg:E00000", 0)}
		if _, err := e.Publish(oplog.OpUpsert, "", one); err != nil {
			t.Fatal(err)
		}
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Something past the base, so every checkpoint compacts.
				if _, err := e.Publish(oplog.OpUpsert, "", one); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := e.Checkpoint(table, g); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	const allowance = 8 << 10
	small, large := alloced(100), alloced(10_000)
	t.Logf("100 entities and links: %d B; 10 000: %d B", small, large)
	if large-small > allowance {
		t.Fatalf("a checkpoint allocates %d bytes for 100 entities and links and %d for 10 000: %d more, past the allowance of %d", small, large, large-small, allowance)
	}
}

// TestCatchUpVerifiesAlignment: a payload read back from the log must hold
// the entities its op lists, in order, or the replay of that op fails: the
// agents apply entities by frame, and incremental views trust the IDs.
func TestCatchUpVerifiesAlignment(t *testing.T) {
	ab, err := encodeEntities([]*triple.Entity{person("kg:A", 1), person("kg:B", 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		ids     []triple.EntityID
		payload []byte
	}{
		"swapped ids":   {[]triple.EntityID{"kg:B", "kg:A"}, ab},
		"missing frame": {[]triple.EntityID{"kg:A", "kg:B", "kg:C"}, ab},
		"extra frame":   {[]triple.EntityID{"kg:A"}, ab},
		"torn frame":    {[]triple.EntityID{"kg:A", "kg:B"}, ab[:len(ab)-3]},
		"flipped bit":   {[]triple.EntityID{"kg:A", "kg:B"}, append(append([]byte(nil), ab[:len(ab)-1]...), ab[len(ab)-1]^1)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			e := newEngine(t)
			g := triple.NewGraph()
			e.RegisterAgent(GraphAgent{Graph: g})
			if _, err := e.Log.Append(oplog.Op{Kind: oplog.OpUpsert, Source: "src00", EntityIDs: c.ids}, c.payload); err != nil {
				t.Fatal(err)
			}
			if err := e.CatchUp(); err == nil {
				t.Fatal("a misaligned payload replayed")
			}
			if g.Len() != 0 {
				t.Fatalf("a refused payload installed %v", g.IDs())
			}
		})
	}
}
