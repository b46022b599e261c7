package graphengine

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"testing"

	"saga/internal/triple"
)

// TestWriteCheckpointAllocsIndependentOfSize: a checkpoint streams, so what
// writing one allocates is bounded by its largest frame, not by the graph —
// 10 000 entities cost the same bytes as 100. A writer that builds the image
// in memory allocates ~100x more at the larger size.
func TestWriteCheckpointAllocsIndependentOfSize(t *testing.T) {
	meta, err := json.Marshal(CheckpointMeta{LSN: 1})
	if err != nil {
		t.Fatal(err)
	}
	alloced := func(n int) int64 {
		ents := make([]*triple.Entity, n)
		for j := range ents {
			ents[j] = person(fmt.Sprintf("kg:E%05d", j), j)
		}
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := WriteCheckpoint(io.Discard, meta, slices.Values(ents)); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	small, large := alloced(100), alloced(10_000)
	if d := large - small; d < -2048 || d > 2048 {
		t.Fatalf("WriteCheckpoint allocates %d bytes for 100 entities and %d for 10 000: it grows with the graph", small, large)
	}
}
