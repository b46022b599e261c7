package core

import "testing"

// BenchmarkRecover measures one recovery: each iteration opens and closes a
// prepared durable tree in the hybrid layout (the memory backend with a
// durability dir) after 30 batches. "checkpoint" checkpoints every 8
// batches, so Open restores a checkpoint and replays a 6-op suffix; "log"
// takes none, so Open replays the whole log. CI gates B/op and allocs/op
// against BENCH_baseline.json.
func BenchmarkRecover(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int
	}{{"checkpoint", 8}, {"log", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{Durability: DurabilityOptions{Dir: b.TempDir(), CheckpointEvery: bc.every}}
			p, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, batch := range durabilityBatches(30) {
				if _, err := p.ConsumeDeltas(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
