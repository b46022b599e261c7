package graphengine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"saga/internal/oplog"
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
		triple.New("", "description", triple.String("a person generated for the compaction tests")).WithSource("src01", 0.7),
		triple.New("", "birth_place", triple.Ref(triple.EntityID(fmt.Sprint("kg:place-", version%13)))).WithSource("src00", 0.9),
		triple.New("", "spouse", triple.Ref(triple.EntityID(fmt.Sprint("kg:E", version)))).WithSource("src02", 0.8),
		triple.NewRel("", "educated_at", "r1", "school", triple.Ref("kg:school")).WithSource("src00", 0.9),
		triple.NewRel("", "educated_at", "r1", "year", triple.Int(int64(1990+version%30))).WithSource("src00", 0.9),
	)
	return e
}

// referenceCompaction is the decode → conflate → re-encode compaction that
// CompactThrough replaced, kept as the statement of what a compaction must
// produce: the rewritten ops (staging keys left blank) and, aligned with
// them, each op's payload (nil for link-only ops), every entity marshalled
// afresh and framed by AppendRecord.
func referenceCompaction(t *testing.T, ops []oplog.Op, staging ObjectStore) ([]oplog.Op, [][]byte) {
	t.Helper()
	type entFinal struct {
		idx int
		ent *triple.Entity
	}
	type linkFinal struct {
		idx    int
		target triple.EntityID
		dead   bool
	}
	final := make(map[triple.EntityID]entFinal)
	links := make(map[triple.EntityID]linkFinal)
	for i, op := range ops {
		if op.StagingKey != "" {
			blob, ok := staging.Get(op.StagingKey)
			if !ok {
				t.Fatalf("reference: payload %s missing", op.StagingKey)
			}
			for len(blob) > 0 {
				rec, rest, err := triple.NextRecord(blob)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				ent := new(triple.Entity)
				if err := ent.UnmarshalBinary(rec); err != nil {
					t.Fatalf("reference: %v", err)
				}
				final[ent.ID] = entFinal{idx: i, ent: ent}
				blob = rest
			}
		}
		for _, id := range op.Deletes {
			final[id] = entFinal{idx: i}
		}
		for src, tgt := range op.Links {
			links[src] = linkFinal{idx: i, target: tgt}
		}
		for _, src := range op.Unlinks {
			links[src] = linkFinal{idx: i, dead: true}
		}
	}
	linksByOp := make(map[int]map[triple.EntityID]triple.EntityID)
	for src, lf := range links {
		if lf.dead {
			continue
		}
		if linksByOp[lf.idx] == nil {
			linksByOp[lf.idx] = make(map[triple.EntityID]triple.EntityID)
		}
		linksByOp[lf.idx][src] = lf.target
	}
	var rewritten []oplog.Op
	var payloads [][]byte
	for i, op := range ops {
		var keep []*triple.Entity
		seen := make(map[triple.EntityID]bool)
		for _, id := range op.EntityIDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			if ef, ok := final[id]; ok && ef.idx == i && ef.ent != nil {
				keep = append(keep, ef.ent)
			}
		}
		if len(keep) == 0 && len(linksByOp[i]) == 0 {
			continue
		}
		nop := oplog.Op{LSN: op.LSN, Kind: oplog.OpUpsert, Source: op.Source, Time: op.Time, Links: linksByOp[i]}
		var payload []byte
		for _, ent := range keep {
			data, err := ent.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			payload = triple.AppendRecord(payload, data)
			nop.EntityIDs = append(nop.EntityIDs, ent.ID)
		}
		rewritten = append(rewritten, nop)
		payloads = append(payloads, payload)
	}
	return rewritten, payloads
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

// churnLog publishes a history with everything compaction conflates:
// overwrites, deletes (alone and riding a payload), a re-created entity, an
// ID listed twice in one op, links, a re-link and an unlink.
func churnLog(t *testing.T, e *Engine) {
	t.Helper()
	tick := int64(1000)
	publish := func(op oplog.Op, ents ...*triple.Entity) {
		t.Helper()
		tick++
		op.Time = tick
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
	publish(oplog.Op{Kind: oplog.OpCheckpoint, Source: "construction"})
	// A payload and a delete in one op; kg:G never existed.
	publish(oplog.Op{Kind: oplog.OpUpsert, Deletes: ids("kg:G")}, person("kg:A", 3))
	publish(up("src02"), person("kg:H", 1), person("kg:B", 3))
}

func TestCompactThroughFrameIdentity(t *testing.T) {
	e := newEngine(t)
	before := registerView(e, "")
	churnLog(t, e)
	w := e.Log.LastLSN()
	// Two ops past the watermark stay as they are.
	if _, err := e.Publish(oplog.OpUpsert, "src00", []*triple.Entity{person("kg:A", 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PublishOp(oplog.Op{Kind: oplog.OpUpsert, Deletes: []triple.EntityID{"kg:H"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	suffix := e.Log.Read(w, 0)
	wantOps, wantPayloads := referenceCompaction(t, e.Log.OpsThrough(w), e.Staging)

	stats, err := e.CompactThrough(w)
	if err != nil {
		t.Fatal(err)
	}
	gotOps := e.Log.OpsThrough(w)
	if len(gotOps) != len(wantOps) || stats.OpsAfter != len(wantOps) {
		t.Fatalf("compacted to %d ops (stats %d), reference %d", len(gotOps), stats.OpsAfter, len(wantOps))
	}
	for i, got := range gotOps {
		payload, _ := e.Staging.Get(got.StagingKey)
		if (got.StagingKey == "") != (wantPayloads[i] == nil) || !bytes.Equal(payload, wantPayloads[i]) {
			t.Errorf("op %d (lsn %d): payload differs from decode→re-encode\n got %x\nwant %x", i, got.LSN, payload, wantPayloads[i])
		}
		got.StagingKey = ""
		if !reflect.DeepEqual(got, wantOps[i]) {
			t.Errorf("op %d differs from the reference\n got %+v\nwant %+v", i, got, wantOps[i])
		}
	}
	if got := e.Log.Read(w, 0); !reflect.DeepEqual(got, suffix) {
		t.Errorf("ops past the watermark changed: %+v", got)
	}
	if want := len(wantOps) + 1; e.Staging.Len() != want-countNil(wantPayloads) {
		t.Errorf("staging holds %d payloads after compaction, want %d", e.Staging.Len(), want-countNil(wantPayloads))
	}
	if stats.EntitiesKept != 6 || stats.Tombstoned != 2 || stats.LinksKept != 3 || stats.LinksElided != 1 {
		t.Errorf("stats = %+v", stats)
	}

	// Replay from genesis of the compacted log equals the original replay,
	// store by store.
	after := registerView(e, "-replayed")
	if err := e.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if a, b := before.digest(t), after.digest(t); a != b {
		t.Errorf("replay of the compacted log diverges\noriginal:\n%s\ncompacted:\n%s", a, b)
	}
}

func countNil(payloads [][]byte) int {
	n := 0
	for _, p := range payloads {
		if p == nil {
			n++
		}
	}
	return n
}

// TestCompactThroughVerifiesAlignment: compaction picks frames by position,
// so a payload whose frames do not line up with the op's entity IDs must
// stop it before anything is rewritten.
func TestCompactThroughVerifiesAlignment(t *testing.T) {
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
			if _, err := e.Publish(oplog.OpUpsert, "src00", []*triple.Entity{person("kg:A", 0)}); err != nil {
				t.Fatal(err)
			}
			key, err := e.Staging.Stage(c.payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Log.Append(oplog.Op{Kind: oplog.OpUpsert, Source: "src00", StagingKey: key, EntityIDs: c.ids}); err != nil {
				t.Fatal(err)
			}
			w := e.Log.LastLSN()
			opsBefore, blobsBefore := e.Log.OpsThrough(w), e.Staging.Len()
			if _, err := e.CompactThrough(w); err == nil {
				t.Fatal("misaligned payload compacted")
			}
			if got := e.Log.OpsThrough(w); !reflect.DeepEqual(got, opsBefore) {
				t.Errorf("log changed by an aborted compaction: %+v", got)
			}
			if e.Staging.Len() != blobsBefore {
				t.Errorf("staging went from %d to %d payloads", blobsBefore, e.Staging.Len())
			}
			for _, op := range opsBefore {
				if _, ok := e.Staging.Get(op.StagingKey); !ok {
					t.Errorf("payload %s of lsn %d gone", op.StagingKey, op.LSN)
				}
			}
		})
	}
}

// overwriteLog fills e's log with ops of perOp entities drawn from a small
// hot set, so most of the prefix is overwritten by its own tail.
func overwriteLog(tb testing.TB, e *Engine, ops, perOp, universe int) {
	tb.Helper()
	r := rand.New(rand.NewSource(7))
	batch := make([]*triple.Entity, perOp)
	for k := 0; k < ops; k++ {
		for j := range batch {
			batch[j] = person(fmt.Sprintf("kg:E%05d", r.Intn(universe)), k)
		}
		if _, err := e.Publish(oplog.OpUpsert, "src00", batch); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCompactThroughAllocations: compaction allocates a bounded number of
// objects per op — nothing per entity version — and no more bytes than twice
// the payloads it writes.
func TestCompactThroughAllocations(t *testing.T) {
	const ops, perOp = 400, 8
	e := newEngine(t)
	overwriteLog(t, e, ops, perOp, 600)
	w := e.Log.LastLSN()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats, err := e.CompactThrough(w)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	surviving := 0
	for _, op := range e.Log.OpsThrough(w) {
		payload, _ := e.Staging.Get(op.StagingKey)
		surviving += len(payload)
	}
	objects, allocated := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	t.Logf("%d ops of %d → %d ops, %d entities, %d payload bytes; %d objects, %d bytes allocated",
		ops, perOp, stats.OpsAfter, stats.EntitiesKept, surviving, objects, allocated)
	if objects > 8*ops {
		t.Errorf("CompactThrough allocated %d objects for %d ops (%d entity versions): want O(ops)", objects, ops, ops*perOp)
	}
	if allocated > 2*uint64(surviving) {
		t.Errorf("CompactThrough allocated %d bytes to write %d payload bytes: want ≤ 2×", allocated, surviving)
	}
}
