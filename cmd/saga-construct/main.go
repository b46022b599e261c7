// Command saga-construct runs batch knowledge construction over generated
// synthetic sources: per-source ingestion deltas flow through linking,
// object resolution, and fusion into the KG, and the resulting graph
// statistics are printed. It demonstrates the continuous-construction path
// end to end, including a second incremental round of updates.
package main

import (
	"flag"
	"fmt"
	"log"

	"saga/internal/construct"
	"saga/internal/core"
	"saga/internal/ingest"
	"saga/internal/workload"
)

func main() {
	sources := flag.Int("sources", 4, "number of synthetic sources")
	perSource := flag.Int("entities", 200, "entities per source")
	overlap := flag.Int("overlap", 100, "universe overlap between consecutive sources")
	durDir := flag.String("durable", "", "durability directory for the memory backend (oplog + checkpoints; empty = volatile)")
	backend := flag.String("backend", "", "storage backend (memory, disk; empty = memory)")
	dataDir := flag.String("data", "", "data directory for a durable backend (required with -backend=disk)")
	workers := flag.Int("workers", 0, "intra-delta construction workers (0 = GOMAXPROCS, 1 = sequential)")
	feedMode := flag.Bool("feed", false, "stream sources through the standing ingestion feed (async ordered publish) instead of synchronous per-delta consumes")
	flag.Parse()

	p, err := core.Open(core.Options{
		Storage:      core.StorageOptions{Backend: *backend, DataDir: *dataDir},
		Construction: core.ConstructionOptions{Workers: *workers},
		Durability:   core.DurabilityOptions{Dir: *durDir},
	})
	if err != nil {
		log.Fatalf("saga-construct: %v", err)
	}
	defer p.Close()
	fmt.Printf("constructing KG from %d sources (%d entities each, overlap %d, feed=%v)\n",
		*sources, *perSource, *overlap, *feedMode)
	deltas := make([]ingest.Delta, 0, *sources+1)
	for s := 0; s < *sources; s++ {
		spec := workload.SourceSpec{
			Name:    fmt.Sprintf("src%02d", s),
			Offset:  s * (*perSource - *overlap),
			Count:   *perSource,
			DupRate: 0.05, TypoRate: 0.1, RichFacts: 2,
			Seed: int64(s + 1),
		}
		deltas = append(deltas, spec.Delta())
	}
	// Incremental round: 5% of source 0 changes.
	changed := workload.SourceSpec{
		Name: "src00", Offset: 0, Count: *perSource / 20,
		Seed: 999, RichFacts: 2,
	}
	deltas = append(deltas, ingest.Delta{Source: "src00", Updated: changed.Entities()[:*perSource/20]})

	if *feedMode {
		// Streaming mode: every delta is its own batch on the standing feed;
		// the commit loop starts the next source the moment the previous
		// one's last commit lands, while publishing trails asynchronously.
		// Each source still links against every previously committed source,
		// exactly as the synchronous loop below.
		f, err := p.Feed(core.FeedOptions{})
		if err != nil {
			log.Fatalf("saga-construct: %v", err)
		}
		results := make([]<-chan construct.BatchResult, 0, len(deltas))
		for _, d := range deltas {
			results = append(results, f.Submit([]ingest.Delta{d}))
		}
		for _, ch := range results {
			res := <-ch
			if res.Err != nil {
				log.Fatalf("saga-construct: batch %d: %v", res.Seq, res.Err)
			}
			fmt.Printf("  %s\n", res.Stats[0])
		}
		if err := f.Close(); err != nil {
			log.Fatalf("saga-construct: %v", err)
		}
		fs := f.Stats()
		fmt.Printf("feed: %d batches submitted, %d committed, %d published in %d publish groups (%.1f batches/group)\n",
			fs.Submitted, fs.Committed, fs.Published, fs.PublishGroups,
			float64(fs.Published)/float64(max(fs.PublishGroups, 1)))
	} else {
		for _, d := range deltas {
			stats, err := p.ConsumeDelta(d)
			if err != nil {
				log.Fatalf("saga-construct: %v", err)
			}
			fmt.Printf("  %s\n", stats)
		}
	}

	conflicts := p.DrainConflicts()
	st := p.Stats()
	fmt.Printf("\nfinal KG: %d entities, %d facts, %d types, %d sources, %d links, log lsn %d, %d conflicts curated\n",
		st.Graph.Entities, st.Graph.Facts, st.Graph.Types, st.Graph.Sources, st.Links, st.LogLSN, len(conflicts))
	fmt.Printf("block index: %d entities, %d keys across %d types; %d probes, %d refreshes\n",
		st.BlockIndex.Entities, st.BlockIndex.Keys, st.BlockIndex.Types, st.BlockIndex.Probes, st.BlockIndex.Refreshes)
	fmt.Printf("fusion: %d commits fused %d payloads into %d targets (%.1f payloads/target)\n",
		st.Fusion.Commits, st.Fusion.Payloads, st.Fusion.Targets,
		float64(st.Fusion.Payloads)/float64(max(st.Fusion.Targets, 1)))
}
