// Command saga-serve builds a KG from synthetic sources and serves it over
// HTTP through the production serving tier (internal/serve): versioned
// /v1/query, /v1/entity, /v1/search, /v1/stats, and /v1/healthz routes with
// snapshot-isolated reads and plan/result caching.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"saga/internal/core"
	"saga/internal/serve"
	"saga/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	durDir := flag.String("durable", "", "durability directory for the memory backend (oplog + checkpoints; empty = volatile)")
	backend := flag.String("backend", "", "storage backend (memory, disk; empty = memory)")
	dataDir := flag.String("data", "", "data directory for a durable backend (required with -backend=disk)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request handling timeout")
	flag.Parse()

	p, err := core.Open(core.Options{
		Storage:    core.StorageOptions{Backend: *backend, DataDir: *dataDir},
		Durability: core.DurabilityOptions{Dir: *durDir},
	})
	if err != nil {
		log.Fatalf("saga-serve: %v", err)
	}
	defer p.Close()
	for s := 0; s < 3; s++ {
		spec := workload.SourceSpec{
			Name: fmt.Sprintf("src%02d", s), Offset: s * 100, Count: 200,
			Seed: int64(s + 1), RichFacts: 2,
		}
		if _, err := p.ConsumeDelta(spec.Delta()); err != nil {
			log.Fatalf("saga-serve: %v", err)
		}
	}
	p.RefreshServing()
	p.BuildNERD()

	srv := serve.New(p, serve.Options{Addr: *addr, RequestTimeout: *timeout})
	log.Printf("saga-serve: listening on %s (try /v1/query?q=entity(type=%%22human%%22)|limit(3))", *addr)
	if err := srv.ListenAndServe(); err != nil {
		log.Fatalf("saga-serve: %v", err)
	}
}
