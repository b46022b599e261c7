package main

import (
	"time"

	"saga/bench/gen"
)

// ReadRate is R, the open-loop read rate of every workload in requests per
// second. It is a constant, never re-derived per run, so a slower system
// faces the same offered load. On the box that defined the benchmark reads
// beside writes saturate somewhere above 3000 req/s (every refresh kills
// every cached result, and readers, refresh and feed share the two cores); R
// is half of that, and the quiescent workload keeps the same R so that it
// stays the control. 0.35 x serve_closed_rps, about 10000 req/s, is out of
// reach beside writes.
const ReadRate = 1500

// roundSeconds is the nominal length of one round; --seconds buys
// --seconds/roundSeconds of them.
const roundSeconds = 2.5

// What every workload's round has in common. The serving KG is the same
// everywhere, so that one refresh costs the same everywhere.
const (
	seedBatches   = 4                      // of seedMix: ~570 KG entities
	closedSlice   = 250 * time.Millisecond // the closed-loop slice
	feedPerRound  = 16                     // paced feed batches beside the reads: 10 a second
	warmReads     = 2048                   // head of the request list read once in set-up
	readLimit     = 50 * time.Millisecond  // an open-loop read slower than this, from its due time, missed the limit
	digestPayload = 64                     // entity-store payloads in the recovery digest
)

var (
	seedMix  = gen.Mix{Adds: 64}
	linkMix  = gen.Mix{Adds: 6, Updates: 2}       // ~70% adds / 30% updates of 3 overlapping sources
	churnMix = gen.Mix{Updates: 1, Overwrites: 9} // 10% stable updates, 90% Zipf-hot overwrites
	feedMix  = gen.Mix{Updates: 1, Overwrites: 6} // the paced feed beside the probes; the probes are the adds
)

// Workload is one set of inputs. The driver wants every end-to-end metric
// from every workload, so every run walks the same rounds,
//
//	round: set-up | probes | closed loop | open-loop reads | ingest (acks, saturating, close, reopen)
//
// and a workload is the configuration the platforms run in, what its ingest
// slice carries and whether the writes run beside the reads. A round is short and every metric takes
// samples in every round, so that a disturbance of the box, which lasts
// seconds, hits a few rounds of every metric and not the whole of one.
type Workload struct {
	Name string

	// Disk selects the disk backend; otherwise memory stores over a durable
	// log (the hybrid deployment).
	Disk            bool
	CheckpointEvery int
	CompactAfter    int

	// Probes freshness probes a round. With WritesBesideReads they are spread
	// evenly over the open-loop read slice and a paced feed of feedPerRound
	// batches of feedMix runs beside them; otherwise they run back to back in
	// a slice of their own and the reads see a quiescent store.
	Probes            int
	WritesBesideReads bool

	// ReadSlice is the length of a round's open-loop slice at ReadRate.
	ReadSlice time.Duration

	// A round's ingest slice runs on a fresh platform: AckBatches batches of
	// IngestMix one at a time, then SatBatches as fast as the feed takes
	// them. It is fixed input, so that a faster platform finishes it sooner.
	// A mix without adds overwrites known entities, so its platform is seeded
	// like the serving one first.
	AckBatches int
	SatBatches int
	IngestMix  gen.Mix
}

// Workloads are the benchmark's two workloads, each with the reason it
// exists; BENCHMARK.json carries a one-line form of it. Every run reports
// every metric, so the two are chosen to sit on opposite sides of both
// questions a change is asked: does construction or storage do the ingest
// work, and do the reads see a quiescent store or writes beside them.
var Workloads = []Workload{
	{
		// Ingest: blocking, matching, clustering, fusion and truth discovery do
		// almost all the work: new people from three overlapping, noisy sources
		// link against a growing KG, while publish and storage only append to a
		// log. A construct, strsim or truth change shows here and not on
		// churn_fresh. Reads: the serve, kgq and live read path alone, at the
		// fixed rate on a quiescent store, plan and result caches warm and valid
		// (the slice walks a stretch of the request list the closed loop has just
		// warmed): the control on which ingest-side and invalidation changes must
		// show no move in serve_*.
		Name:   "link_quiet",
		Probes: 24, ReadSlice: 1000 * time.Millisecond,
		AckBatches: 50, SatBatches: 130, IngestMix: linkMix,
	},
	{
		// Ingest: construction is a cheap partition overwrite; capture, triple
		// encoding, oplog, disk fsync, agents, checkpoints and compaction do the
		// work, background cycles complete, and Zipf-hot keys make publish
		// conflation visible. Storage-side changes show here and not on
		// link_quiet. Reads: the same read path with writes beside it: a paced
		// feed and a freshness probe share the read slice, each refresh rewrites
		// the live store from the disk backend, versions bump and result-cache
		// entries die. Ingest gains that are really deferral show as worse
		// fresh_*, freshness fixes that tax readers as worse serve.p90_ms. A
		// checkpoint rides the publisher after every 8th batch, so one ack in
		// eight waits behind one and ingest_ack_p95_ms is such an ack's; at the
		// issue's 16 the p95 sat on the edge between the two kinds.
		Name: "churn_fresh",
		Disk: true, CheckpointEvery: 8, CompactAfter: 200,
		Probes: 13, WritesBesideReads: true, ReadSlice: 1600 * time.Millisecond,
		AckBatches: 60, SatBatches: 160, IngestMix: churnMix,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
