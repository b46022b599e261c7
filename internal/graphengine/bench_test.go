package graphengine

import (
	"fmt"
	"testing"

	"saga/internal/oplog"
	"saga/internal/storage/disk"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

// Micro-benchmarks of the publish → replay → checkpoint byte path (CI
// records their B/op and allocs/op in BENCH_baseline.json).

func benchBatch() []*triple.Entity {
	batch := make([]*triple.Entity, 8)
	for j := range batch {
		batch[j] = person(fmt.Sprintf("kg:E%05d", j), j)
	}
	return batch
}

func BenchmarkEncodeEntities(b *testing.B) {
	batch := benchBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeEntities(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEntities(b *testing.B) {
	payload, err := encodeEntities(benchBatch())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeEntities(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint is one checkpoint of 1000 entities and 1000 links as
// the platform takes it: the base's entity IDs and frames from a snapshot of
// the graph and its links from the link table's pmap, streamed through the
// record log's reused write buffer into a fresh segment of a disk log,
// fsynced and adopted by a manifest flip. Nothing it allocates grows with
// the graph: the file and manifest I/O of the new segment, the header's 1
// KiB chunk buffer, the frame scratch buffer's growth to the largest frame,
// and the graph snapshot's header and source refcounts.
func BenchmarkCheckpoint(b *testing.B) {
	g := triple.NewGraph()
	links := make(map[triple.EntityID]triple.EntityID)
	for j := 0; j < 1000; j++ {
		ent := person(fmt.Sprintf("kg:E%05d", j), j)
		g.PutOwned(ent)
		links[triple.EntityID(fmt.Sprintf("src00:%05d", j))] = ent.ID
	}
	table := linkMap(links)
	one := []*triple.Entity{person("kg:E00000", 0)}
	rec, err := disk.OpenRecordLog(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	log, err := oplog.OpenStore(rec)
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	e := New(log)
	if _, err := e.Publish(oplog.OpUpsert, "src00", one); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Something past the base, so every checkpoint compacts.
		if _, err := e.Publish(oplog.OpUpsert, "src00", one); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.Checkpoint(table, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatchUp replays one just-published op of 8 entities into the
// store agents core registers, the unit of work behind every publish group:
// the hand-over of the op's records, with no log read and no decode.
// BenchmarkDecodeEntities gates the decode path recovery uses.
func BenchmarkCatchUp(b *testing.B) {
	e := New(oplog.NewVolatile())
	e.RegisterAgent(EntityStoreAgent{Store: entitystore.New()})
	e.RegisterAgent(GraphAgent{Graph: triple.NewGraph()})
	batch := benchBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := e.Publish(oplog.OpUpsert, "src00", batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.CatchUp(); err != nil {
			b.Fatal(err)
		}
	}
}
