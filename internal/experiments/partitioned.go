package experiments

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"saga/internal/construct"
	"saga/internal/core"
	"saga/internal/ingest"
	"saga/internal/triple"
	"saga/internal/workload"
)

// servingDump flattens every serving surface of a platform — stable KG,
// graph replica, entity store, text index — for byte comparison between
// construction modes. It omits the log LSN: partitioned publishing conflates
// an exchange window's churn into fewer operations, so op counts legitimately
// differ while store contents must not.
type servingDump struct {
	KG       []triple.Triple
	Replica  []triple.Triple
	Entities []triple.EntityID
	Search   []string
}

func dumpServing(p *core.Platform) (servingDump, error) {
	d := servingDump{
		KG:      p.KG.Graph.Triples(),
		Replica: p.GraphReplica.Triples(),
	}
	if err := p.EntityStore.Range(func(e *triple.Entity) bool {
		d.Entities = append(d.Entities, e.ID)
		return true
	}); err != nil {
		return d, err
	}
	sort.Slice(d.Entities, func(i, j int) bool { return d.Entities[i] < d.Entities[j] })
	for _, h := range p.TextIndex.Search("popularity", 10) {
		d.Search = append(d.Search, h.ID)
	}
	return d, nil
}

// PartitionedIngestResult is the partitioned-construction scaling ablation:
// the standing-feed workload ingested by a one-partition platform (N=1) and by
// a four-partition platform (N=4), both through the standing feed over a
// durable operation log. Partitioning buys its throughput from the exchange
// protocol's deferral — volatile overwrites enqueue into per-owner backlogs
// and collapse per (target, source) across an exchange window instead of
// fusing per batch, publishes for churn entities ship once per window instead
// of once per batch, and serving-cache refreshes skip volatile-only writes —
// so the gain holds even on a single core, where it cannot come from
// parallelism. The two platforms must leave every serving surface
// byte-identical; that is the cross-partition linking contract
// (docs/INVARIANTS.md#cross-partition-linking).
type PartitionedIngestResult struct {
	Batches    int // batches in the stream
	Sources    int // type-disjoint sources per batch
	Count      int // entities per source per batch
	Partitions int // partition count of the partitioned run

	SingleMS      float64 // N=1 feed ingest, min over reps
	PartitionedMS float64 // N=Partitions feed ingest, min over reps
	ScalingX      float64 // SingleMS / PartitionedMS

	// SingleOps and PartitionedOps are the operations each mode appended to
	// its log; the partitioned publisher's window conflation reduces them.
	SingleOps, PartitionedOps uint64
	// Identical reports that KG, replica, entity store, and text index
	// matched byte-for-byte between the two platforms.
	Identical bool
}

// String renders the ablation.
func (r PartitionedIngestResult) String() string {
	return fmt.Sprintf("Partitioned ingest scaling: %d batches x %d sources x %d entities, durable log; N=1 %.1fms/%d ops, N=%d %.1fms/%d ops (%.2fx); identical=%v\n",
		r.Batches, r.Sources, r.Count, r.SingleMS, r.SingleOps, r.Partitions,
		r.PartitionedMS, r.PartitionedOps, r.ScalingX, r.Identical)
}

// PartitionedIngest runs the scaling ablation. Timings are minima over three
// repetitions; each run gets a fresh platform over a fresh durable log.
// workers sizes the pipelines; 0 means GOMAXPROCS.
func PartitionedIngest(workers int) (PartitionedIngestResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const rounds, sources, count, richFacts, reps, partitions = 48, 4, 36, 8, 3, 4
	res := PartitionedIngestResult{
		Batches: rounds, Sources: sources, Count: count, Partitions: partitions,
	}
	batches := standingFeedBatches(rounds, sources, count, richFacts)

	feedRun := func(parts int) (float64, *core.Platform, func(), error) {
		dir, err := os.MkdirTemp("", "saga-partingest-*")
		if err != nil {
			return 0, nil, nil, err
		}
		cleanup := func() { os.RemoveAll(dir) }
		p, err := core.Open(core.Options{
			Construction: core.ConstructionOptions{
				Workers: workers, Partitions: parts, ExchangeInterval: 12,
			},
			Durability: core.DurabilityOptions{Dir: dir},
		})
		if err != nil {
			cleanup()
			return 0, nil, nil, err
		}
		start := time.Now()
		f, err := p.Feed(core.FeedOptions{})
		if err != nil {
			cleanup()
			return 0, nil, nil, err
		}
		results := make([]<-chan construct.BatchResult, 0, len(batches))
		for _, b := range batches {
			results = append(results, f.Submit(b))
		}
		if err := f.Close(); err != nil {
			cleanup()
			return 0, nil, nil, err
		}
		for i, ch := range results {
			if r := <-ch; r.Err != nil {
				cleanup()
				return 0, nil, nil, fmt.Errorf("batch %d (N=%d): %w", i, parts, r.Err)
			}
		}
		return float64(time.Since(start).Microseconds()) / 1000, p, cleanup, nil
	}

	minMS := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}
	for rep := 0; rep < reps; rep++ {
		oneMS, one, oneClean, err := feedRun(1)
		if err != nil {
			return res, err
		}
		manyMS, many, manyClean, err := feedRun(partitions)
		if err != nil {
			oneClean()
			return res, err
		}
		res.SingleMS = minMS(res.SingleMS, oneMS)
		res.PartitionedMS = minMS(res.PartitionedMS, manyMS)
		if rep == 0 {
			res.SingleOps = one.Engine.Log.LastLSN()
			res.PartitionedOps = many.Engine.Log.LastLSN()
			a, err := dumpServing(one)
			if err == nil {
				var b servingDump
				if b, err = dumpServing(many); err == nil {
					res.Identical = reflect.DeepEqual(a, b)
				}
			}
			if err != nil {
				oneClean()
				manyClean()
				return res, err
			}
		}
		err = one.Engine.Log.Close()
		if err2 := many.Engine.Log.Close(); err == nil {
			err = err2
		}
		oneClean()
		manyClean()
		if err != nil {
			return res, fmt.Errorf("close logs: %w", err)
		}
	}
	res.ScalingX = res.SingleMS / res.PartitionedMS
	return res, nil
}

// HotKeySkewResult is the hot-key skew ablation: a Zipf-skewed celebrity
// mention stream whose payloads mass-fuse into a handful of hot KG targets,
// all of one type — so under type-hash partitioning the entire fusion load
// lands on one partition while its siblings idle. This is the adversarial
// counterpart to PartitionedIngest: the exchange protocol must still leave
// the partitioned KG byte-identical, but the throughput gain collapses,
// quantifying how far key skew erodes partitioned scaling.
type HotKeySkewResult struct {
	Batches    int // batches in the stream
	Sources    int // sources per batch
	Count      int // payload mentions per source per batch
	Universe   int // distinct celebrity identities
	Partitions int // partition count of the partitioned run

	SingleMS      float64 // N=1 ingest, min over reps
	PartitionedMS float64 // N=Partitions ingest, min over reps
	SkewScalingX  float64 // SingleMS / PartitionedMS

	// PayloadsPerTarget is the single platform's fusion amortization: payload
	// entities merged per fused KG target. The Zipf head drives it far above
	// the balanced workload's ratio.
	PayloadsPerTarget float64
	// MaxPartitionShare is the hottest partition's share of all fusion
	// payloads in the partitioned run; 1/Partitions is perfect balance, and
	// this workload pins it near 1.
	MaxPartitionShare float64
	// Identical reports byte-identical serving surfaces across the two runs.
	Identical bool
}

// String renders the ablation.
func (r HotKeySkewResult) String() string {
	return fmt.Sprintf("Hot-key skew ablation: %d batches x %d sources x %d mentions over %d celebrities; N=1 %.1fms, N=%d %.1fms (%.2fx vs %.2fx balanced ideal); %.1f payloads/target, hottest partition %.0f%% of fusion; identical=%v\n",
		r.Batches, r.Sources, r.Count, r.Universe, r.SingleMS, r.Partitions,
		r.PartitionedMS, r.SkewScalingX, float64(r.Partitions),
		r.PayloadsPerTarget, r.MaxPartitionShare*100, r.Identical)
}

// hotKeyBatches builds the skewed stream: round 0 adds each source's mention
// payloads, later rounds re-draw them (updates that relink and refuse into
// the same hot targets under fresh Zipf draws).
func hotKeyBatches(rounds, sources, count, universe int) [][]ingest.Delta {
	out := make([][]ingest.Delta, rounds)
	for r := range out {
		deltas := make([]ingest.Delta, sources)
		for s := range deltas {
			spec := workload.SkewSpec{
				Name:     fmt.Sprintf("paparazzi%02d", s),
				Count:    count,
				Universe: universe,
				Seed:     int64(r*31 + s + 1),
			}
			if r == 0 {
				deltas[s] = spec.Delta()
			} else {
				deltas[s] = ingest.Delta{Source: spec.Name, Updated: spec.Entities()}
			}
		}
		out[r] = deltas
	}
	return out
}

// HotKeySkew runs the hot-key skew ablation over the synchronous consume
// path. workers sizes the pipelines; 0 means GOMAXPROCS.
func HotKeySkew(workers int) (HotKeySkewResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const rounds, sources, count, universe, reps, partitions = 4, 3, 90, 8, 3, 4
	res := HotKeySkewResult{
		Batches: rounds, Sources: sources, Count: count,
		Universe: universe, Partitions: partitions,
	}
	batches := hotKeyBatches(rounds, sources, count, universe)

	run := func(parts int) (float64, *core.Platform, error) {
		p, err := core.Open(core.Options{
			Construction: core.ConstructionOptions{Workers: workers, Partitions: parts},
		})
		if err != nil {
			return 0, nil, err
		}
		start := time.Now()
		for _, b := range batches {
			if _, err := p.ConsumeDeltas(b); err != nil {
				return 0, nil, err
			}
		}
		return float64(time.Since(start).Microseconds()) / 1000, p, nil
	}

	minMS := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}
	for rep := 0; rep < reps; rep++ {
		oneMS, one, err := run(1)
		if err != nil {
			return res, err
		}
		manyMS, many, err := run(partitions)
		if err != nil {
			return res, err
		}
		res.SingleMS = minMS(res.SingleMS, oneMS)
		res.PartitionedMS = minMS(res.PartitionedMS, manyMS)
		if rep == 0 {
			fu := one.Pipeline.FusionStats()
			if fu.Targets > 0 {
				res.PayloadsPerTarget = float64(fu.Payloads) / float64(fu.Targets)
			}
			total, max := 0, 0
			for _, part := range many.Pipeline.PartitionFusionStats() {
				pay := part.Payloads
				total += pay
				if pay > max {
					max = pay
				}
			}
			if total > 0 {
				res.MaxPartitionShare = float64(max) / float64(total)
			}
			a, err := dumpServing(one)
			if err != nil {
				return res, err
			}
			b, err := dumpServing(many)
			if err != nil {
				return res, err
			}
			res.Identical = reflect.DeepEqual(a, b)
		}
	}
	res.SkewScalingX = res.SingleMS / res.PartitionedMS
	return res, nil
}
