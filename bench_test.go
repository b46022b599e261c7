// Package saga's root benchmark harness: one benchmark per table/figure of
// the paper's evaluation plus the in-text claims and design ablations. Each
// benchmark wraps the corresponding experiment in internal/experiments and
// reports the paper's headline quantity as a custom metric, so
// `go test -bench=. -benchmem` regenerates every reported result. The
// experiment index in DESIGN.md and the measured-vs-paper record in
// EXPERIMENTS.md reference these benchmarks by name.
package saga_test

import (
	"testing"

	"saga/internal/experiments"
)

// BenchmarkFig8ViewComputation regenerates Figure 8: analytics-store view
// computation vs the legacy row-at-a-time system across six production
// views. Reported metrics: average and maximum speedup.
func BenchmarkFig8ViewComputation(b *testing.B) {
	var last experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Fig8Spec{})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	var sum, max float64
	for _, row := range last.Rows {
		sum += row.Speedup
		if row.Speedup > max {
			max = row.Speedup
		}
	}
	b.ReportMetric(sum/float64(len(last.Rows)), "avg-speedup-x")
	b.ReportMetric(max, "max-speedup-x")
	b.Logf("\n%s", last)
}

// BenchmarkViewDependencyReuse regenerates the §3.2 in-text claim: run-time
// improvement from shared-view reuse in the Figure 7 dependency DAG
// (paper: 26%).
func BenchmarkViewDependencyReuse(b *testing.B) {
	var last experiments.ReuseResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.ViewReuse()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ImprovementPct, "improvement-%")
	b.Logf("\n%s", last)
}

// BenchmarkFig12KGGrowth regenerates Figure 12: relative growth of facts and
// entities across the simulated quarterly timeline with the Saga inflection
// (paper: ~33x facts, ~6.5x entities).
func BenchmarkFig12KGGrowth(b *testing.B) {
	var last experiments.GrowthResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	final := last.Points[len(last.Points)-1]
	b.ReportMetric(final.FactsRel, "facts-growth-x")
	b.ReportMetric(final.EntitiesRel, "entities-growth-x")
	b.Logf("\n%s", last)
}

// BenchmarkFig14aNERDText regenerates Figure 14(a): NERD vs the deployed
// baseline on text annotation across confidence cutoffs (paper: recall gain
// ~70% at 0.9, diminishing below; precision gain up to 3.4%).
func BenchmarkFig14aNERDText(b *testing.B) {
	var last experiments.Fig14aResult
	for i := 0; i < b.N; i++ {
		last = experiments.Fig14a()
	}
	b.ReportMetric(last.Rows[0].RecallGain, "recall-gain-%@0.9")
	b.ReportMetric(last.Rows[0].PrecisionGain, "precision-gain-%@0.9")
	b.Logf("\n%s", last)
}

// BenchmarkFig14bNERDObjectResolution regenerates Figure 14(b): object
// resolution at the 0.9 cutoff, NERD and NERD+type-hints vs the baseline
// (paper: +type hints gives precision +~10%, recall +~25%).
func BenchmarkFig14bNERDObjectResolution(b *testing.B) {
	var last experiments.Fig14bResult
	for i := 0; i < b.N; i++ {
		last = experiments.Fig14b()
	}
	b.ReportMetric((last.NERDTypeHints.Precision-last.Baseline.Precision)/last.Baseline.Precision*100, "precision-gain-%")
	b.ReportMetric((last.NERDTypeHints.Recall-last.Baseline.Recall)/last.Baseline.Recall*100, "recall-gain-%")
	b.Logf("\n%s", last)
}

// BenchmarkLiveQueryLatency regenerates the §4.2/§6.1 serving claim: p95
// latency of the live KGQ engine under a concurrent mixed workload
// (paper: p95 < 20ms at billions of queries per day).
func BenchmarkLiveQueryLatency(b *testing.B) {
	var last experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.LiveLatency(2000, 8)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.P95.Microseconds())/1000, "p95-ms")
	b.ReportMetric(last.QPS, "qps")
	b.Logf("\n%s", last)
}

// BenchmarkLearnedSimilarityRecall regenerates the §5.1 in-text claim:
// learned string similarity improves matching recall by more than 20 points
// on synonym/typo-rich data.
func BenchmarkLearnedSimilarityRecall(b *testing.B) {
	var last experiments.SimRecallResult
	for i := 0; i < b.N; i++ {
		last = experiments.LearnedSimilarityRecall()
	}
	b.ReportMetric(last.GainPoints, "recall-gain-points")
	b.Logf("\n%s", last)
}

// BenchmarkEmbeddingTraining regenerates the §5.3 comparison: Marius-style
// buffer-aware partition scheduling vs naive ordering (IO volume), plus
// TransE/DistMult link-prediction quality.
func BenchmarkEmbeddingTraining(b *testing.B) {
	var last experiments.EmbeddingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.EmbeddingTraining()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.IOReduction, "io-reduction-x")
	b.ReportMetric(last.TransEMeanRank, "transe-mean-rank")
	b.Logf("\n%s", last)
}

// BenchmarkConstructionPipeline regenerates the §2.4 design claims:
// delta-based construction vs full rebuild, parallel vs sequential source
// pipelines, and intra-delta workers=1 vs workers=N (which must produce an
// identical KG).
func BenchmarkConstructionPipeline(b *testing.B) {
	var last experiments.ConstructionResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.ConstructionPipeline(0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.IntraIdentical {
			b.Fatal("intra-delta parallel KG diverged from sequential")
		}
		last = res
	}
	b.ReportMetric(last.DeltaSpeedup, "delta-speedup-x")
	b.ReportMetric(last.ParallelSpeedup, "parallel-speedup-x")
	b.ReportMetric(last.IntraSpeedup, "intra-delta-speedup-x")
	b.Logf("\n%s", last)
}

// BenchmarkIndexedLinkingKGGrowth measures the incremental-blocking-index
// claim as the KG grows: per-delta linking cost with the persistent block
// index tracks |delta| while the full-scan path tracks the accumulated |KG|,
// and both construct byte-identical graphs. The name carries "KGGrowth" so
// the CI bench job records the speedup trajectory per commit.
func BenchmarkIndexedLinkingKGGrowth(b *testing.B) {
	var last experiments.IndexedLinkingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.IndexedLinking(0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("indexed linking KG diverged from full scan")
		}
		if !res.DeltaScaled {
			b.Fatalf("indexed candidate volume did not scale with |delta|: scan growth %.2fx vs indexed %.2fx",
				res.ScanGrowth, res.IndexedGrowth)
		}
		last = res
	}
	b.ReportMetric(last.SpeedupAtLargest, "indexed-speedup-x")
	b.ReportMetric(last.ScanGrowth, "scan-cmp-growth-x")
	b.ReportMetric(last.IndexedGrowth, "indexed-cmp-growth-x")
	b.Logf("\n%s", last)
}

// BenchmarkPipelinedConsumeBatchedFusion measures the post-index commit hot
// path: per-target batched fusion vs the per-entity baseline on
// commit-dominated update batches whose payloads share target KG entities
// (one graph round-trip and one truth-discovery pass per target instead of
// one per payload). Both paths must construct byte-identical KGs, and the
// batched path must not regress against the per-entity ablation baseline.
// The name still carries "PipelinedConsume" (the schedule it once also
// compared is gone): the CI bench regex and the BENCH_baseline.json gate are
// keyed on it, so the fusion trajectory in BENCH_ci.json stays continuous.
func BenchmarkPipelinedConsumeBatchedFusion(b *testing.B) {
	var last experiments.BatchedFusionResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.BatchedFusion(0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("batched-fusion KG diverged from per-entity fusion")
		}
		if res.FusionSpeedup < 1.15 {
			b.Fatalf("batched fusion regressed against the per-entity baseline: %.2fx (want >= 1.15x)", res.FusionSpeedup)
		}
		last = res
	}
	b.ReportMetric(last.FusionSpeedup, "batched-fusion-speedup-x")
	b.ReportMetric(float64(last.Payloads)/float64(last.Targets), "payloads-per-target")
	b.Logf("\n%s", last)
}

// BenchmarkStandingFeedCrossBatch measures the cross-batch pipelining claim:
// a stream of delta batches ingested through the standing feed — batch N+1's
// validation/snapshot/compute starting at batch N's last commit, publishing
// on the ordered async group-commit publisher — versus serial ConsumeDeltas
// calls, one submit-and-await at a time, that pay the publish + agent
// catch-up between batches.
// Both platforms run a durable operation log, both must leave the KG and the
// graph replica byte-identical, and the feed must deliver at least 1.15x
// end-to-end throughput. The name carries "StandingFeed" so the CI bench job
// records the trajectory per commit in BENCH_ci.json, where the metric is
// regression-gated against BENCH_baseline.json.
func BenchmarkStandingFeedCrossBatch(b *testing.B) {
	var last experiments.StandingFeedResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.StandingFeed(0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("standing feed KG or replica diverged from serial ConsumeDeltas")
		}
		if res.FeedSpeedup < 1.15 {
			b.Fatalf("standing feed regressed against serial ConsumeDeltas: %.2fx (want >= 1.15x)", res.FeedSpeedup)
		}
		last = res
	}
	b.ReportMetric(last.FeedSpeedup, "feed-speedup-x")
	b.ReportMetric(last.Conflation, "publish-conflation-x")
	b.ReportMetric(last.SerialMS, "serial-ms")
	b.ReportMetric(last.FeedMS, "feed-ms")
	b.Logf("\n%s", last)
}

// BenchmarkStandingFeedDiskBackend measures what the disk storage backend
// costs on the standing-feed workload against the hybrid configuration
// (memory backend over the same durable layout): both stage through the same
// segment store, so the ratio isolates the mmap-read entity KV. The two runs must leave the KG, replica, entity store, and
// text index byte-identical, and the disk platform must rebuild its replica
// from its files after a reopen — the correctness bar always holds. The
// disk-overhead ratio is the tracked metric; the name carries "StandingFeed"
// so the CI bench regex records the trajectory per commit in BENCH_ci.json,
// where the metric is regression-gated against BENCH_baseline.json.
func BenchmarkStandingFeedDiskBackend(b *testing.B) {
	var last experiments.StorageBackendsResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.StorageBackends(0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("disk backend state diverged from memory backend")
		}
		if !res.Recovered {
			b.Fatal("disk backend failed to rebuild the replica after reopen")
		}
		last = res
	}
	b.ReportMetric(last.DiskOverheadX, "disk-overhead-x")
	b.ReportMetric(last.MemoryMS, "memory-ms")
	b.ReportMetric(last.DiskMS, "disk-ms")
	b.Logf("\n%s", last)
}

// BenchmarkSnapshotUnderLoad measures the copy-on-write graph on the
// serving path: Snapshot() latency must stay roughly flat as the KG grows 5x
// (the deep-copy comparator grows linearly — that was the pre-COW Snapshot
// the view manager and NERD builds paid per refresh), and clone-free shared
// reads must beat the clone-per-read baseline by at least 1.15x while a
// writer ingests concurrently. Both claims gate the CI bench job; the
// correctness bits (snapshots frozen at their cut, byte-identical content
// across copies and snapshots) must always hold. The name carries
// "SnapshotUnderLoad" so the CI bench regex records the trajectory per
// commit in BENCH_ci.json.
func BenchmarkSnapshotUnderLoad(b *testing.B) {
	var last experiments.GraphStoreResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.GraphStore()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("COW graph content diverged across deep copies or snapshots")
		}
		if !res.SnapshotFrozen {
			b.Fatal("snapshot moved while the live graph advanced")
		}
		if !res.SnapshotFlat {
			b.Fatalf("snapshot latency not flat in |KG|: %.2fx over 5x growth (deep copy %.2fx)",
				res.SnapshotGrowth, res.DeepCopyGrowth)
		}
		if res.SharedReadSpeedup < 1.15 {
			b.Fatalf("shared reads regressed against clone-per-read baseline: %.2fx (want >= 1.15x)",
				res.SharedReadSpeedup)
		}
		last = res
	}
	b.ReportMetric(last.SnapshotGrowth, "snapshot-growth-x")
	b.ReportMetric(last.DeepCopyGrowth, "deepcopy-growth-x")
	b.ReportMetric(last.SnapshotLargeUS, "snapshot-us")
	b.ReportMetric(last.SharedReadSpeedup, "shared-read-speedup-x")
	b.Logf("\n%s", last)
}

// BenchmarkServeUnderIngest measures the production serving tier (§4, §6.1):
// concurrent mixed KGQ/entity/search traffic over the /v1 HTTP API while a
// standing feed churns stable construction and a streaming writer updates
// live entities. Queries execute on versioned immutable snapshots of the
// live store, with plan caching and (plan, version)-keyed result
// caching. Gated metrics: p99 request latency and queries/sec (absolute,
// generous thresholds for runner noise) plus the cached-vs-uncached fast-path
// speedup. The correctness property — cached and uncached execution pinned to
// one snapshot return byte-identical results while ingestion writes — must
// always hold. The name carries "ServeUnderIngest" so the CI bench job
// records the trajectory per commit in BENCH_ci.json, where the metrics are
// regression-gated against BENCH_baseline.json.
func BenchmarkServeUnderIngest(b *testing.B) {
	var last experiments.ServeUnderIngestResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.ServeUnderIngest(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheIdentical {
			b.Fatal("cached and uncached query results diverged under concurrent ingestion")
		}
		if res.CachedSpeedup < 1.5 {
			b.Fatalf("serving fast path regressed against uncached execution: %.2fx (want >= 1.5x)", res.CachedSpeedup)
		}
		last = res
	}
	b.ReportMetric(last.P99MS, "p99-ms")
	b.ReportMetric(last.QPS, "qps")
	b.ReportMetric(last.CachedSpeedup, "cached-speedup-x")
	b.ReportMetric(last.HitRate, "result-hit-rate")
	b.Logf("\n%s", last)
}

// BenchmarkBlockingAblation measures the blocking design choice: candidate
// comparisons and quality vs quadratic pair generation.
func BenchmarkBlockingAblation(b *testing.B) {
	var last experiments.BlockingResult
	for i := 0; i < b.N; i++ {
		last = experiments.BlockingAblation()
	}
	b.ReportMetric(last.ReductionX, "comparison-reduction-x")
	b.ReportMetric(last.BlockedF1, "blocked-f1")
	b.Logf("\n%s", last)
}

// BenchmarkResolutionAblation measures correlation clustering vs greedy
// transitive closure (pair F1 and the ≤1-KG-entity constraint violations)
// plus sharded parallel resolution with workers=1 vs workers=N.
func BenchmarkResolutionAblation(b *testing.B) {
	var last experiments.ResolutionResult
	for i := 0; i < b.N; i++ {
		last = experiments.ResolutionAblation(0)
		if !last.ResolveIdentical {
			b.Fatal("parallel resolution diverged from sequential")
		}
	}
	b.ReportMetric(last.CorrelationF1, "correlation-f1")
	b.ReportMetric(float64(last.ClosureViolations), "closure-violations")
	b.ReportMetric(last.ResolveSpeedup, "resolve-speedup-x")
	b.Logf("\n%s", last)
}

// BenchmarkVolatileOverwrite measures the volatile-partition overwrite path
// vs full fusion for high-churn predicates (§2.4).
func BenchmarkVolatileOverwrite(b *testing.B) {
	var last experiments.VolatileResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.VolatileOverwrite()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Speedup, "overwrite-speedup-x")
	b.Logf("\n%s", last)
}

// BenchmarkCandidatePruning measures candidate-retrieval recall@k under
// importance-based pruning (§5.2).
func BenchmarkCandidatePruning(b *testing.B) {
	var last experiments.PruningResult
	for i := 0; i < b.N; i++ {
		last = experiments.CandidatePruning()
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].RecallAtK, "recall@16")
	b.Logf("\n%s", last)
}

// BenchmarkRecoveryColdStart regenerates the bounded-cold-start claim:
// recovery restores the latest checkpoint and replays only the log suffix,
// so cold-start time stays ~flat while the log ages 10x (recovery-flat-x),
// where full replay of the aged log degrades with its length. The identity
// assertion — checkpoint recovery byte-identical to full log replay — and
// the hard flatness bound fail the benchmark directly; the JSON gate guards
// the recorded ratio against drift.
func BenchmarkRecoveryColdStart(b *testing.B) {
	var last experiments.RecoveryColdStartResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RecoveryColdStart(0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("checkpoint recovery diverged from full log replay")
		}
		if res.FlatX > 3.0 {
			b.Fatalf("cold start grew %.2fx while the log aged %dx; recovery is no longer checkpoint-bounded",
				res.FlatX, res.OldBatches/res.YoungBatches)
		}
		last = res
	}
	b.ReportMetric(last.FlatX, "recovery-flat-x")
	b.ReportMetric(last.YoungMS, "young-recovery-ms")
	b.ReportMetric(last.OldMS, "aged-recovery-ms")
	b.ReportMetric(last.ReplayMS, "full-replay-ms")
	b.ReportMetric(last.ReplaySlowdownX, "replay-slowdown-x")
	b.Logf("\n%s", last)
}
