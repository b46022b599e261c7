package graphengine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"testing"

	"saga/internal/oplog"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

// Micro-benchmarks of the publish → replay → checkpoint → compact byte path
// (CI records their B/op and allocs/op in BENCH_baseline.json).

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

// BenchmarkWriteCheckpoint is one checkpoint of 1000 entities and 1000
// links as runCheckpoint takes it: the meta marshalled, then everything
// streamed through one reused write buffer (into io.Discard).
func BenchmarkWriteCheckpoint(b *testing.B) {
	ents := make([]*triple.Entity, 1000)
	links := make(map[triple.EntityID]triple.EntityID)
	for j := range ents {
		ents[j] = person(fmt.Sprintf("kg:E%05d", j), j)
		links[triple.EntityID(fmt.Sprintf("src00:%05d", j))] = ents[j].ID
	}
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		meta, err := json.Marshal(CheckpointMeta{LSN: 1, Links: links})
		if err != nil {
			b.Fatal(err)
		}
		bw.Reset(io.Discard)
		if err := WriteCheckpoint(bw, meta, slices.Values(ents)); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatchUp replays one just-published op of 8 entities into the
// store agents core registers, the unit of work behind every publish group:
// the hand-over of the op's records, with no staging read and no decode.
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

// BenchmarkCompactThrough compacts a 400-op prefix that overwrites a
// 600-entity hot set.
func BenchmarkCompactThrough(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(oplog.NewVolatile())
		overwriteLog(b, e, 400, 8, 600)
		b.StartTimer()
		if _, err := e.CompactThrough(e.Log.LastLSN()); err != nil {
			b.Fatal(err)
		}
	}
}
