package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"saga/internal/construct"
	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

// ConstructionResult reproduces the §2.4 design claims: delta-based
// construction beats full rebuilds, parallel source pipelines beat
// sequential consumption, and intra-delta parallelism (workers > 1) beats
// the single-worker reference path on one large source while producing an
// identical KG.
type ConstructionResult struct {
	FullRebuildMS   float64
	DeltaMS         float64
	DeltaSpeedup    float64
	SequentialMS    float64
	ParallelMS      float64
	ParallelSpeedup float64
	Sources         int

	// Intra-delta ablation: one large delta consumed with 1 vs N workers.
	Workers        int
	IntraSeqMS     float64
	IntraParMS     float64
	IntraSpeedup   float64
	IntraIdentical bool // the two runs wrote byte-identical KGs
}

// String renders the comparison.
func (r ConstructionResult) String() string {
	return fmt.Sprintf("Incremental construction (§2.4): full-rebuild=%.1fms delta=%.1fms (%.1fx); sequential=%.1fms parallel=%.1fms (%.2fx) over %d sources; intra-delta workers=1 %.1fms vs workers=%d %.1fms (%.2fx, identical=%v)\n",
		r.FullRebuildMS, r.DeltaMS, r.DeltaSpeedup,
		r.SequentialMS, r.ParallelMS, r.ParallelSpeedup, r.Sources,
		r.IntraSeqMS, r.Workers, r.IntraParMS, r.IntraSpeedup, r.IntraIdentical)
}

// ConstructionPipeline measures delta-vs-rebuild, parallel-vs-sequential
// source consumption, and the intra-delta worker-pool ablation. workers
// sizes the parallel side of the intra-delta comparison; 0 means GOMAXPROCS.
func ConstructionPipeline(workers int) (ConstructionResult, error) {
	ont := ontology.Default()
	const sources, perSource = 6, 150
	// Each source feeds its own entity type so every delta's linking does the
	// same work under Consume (which prepares against the batch-start KG) and
	// ConsumeSequential (whose later deltas see earlier sources' output):
	// the speedup then measures parallelism, not skipped cross-source
	// blocking.
	specs := make([]workload.SourceSpec, sources)
	for s := range specs {
		specs[s] = workload.SourceSpec{
			Name: fmt.Sprintf("src%d", s), Type: fmt.Sprintf("human%d", s),
			Offset: s * perSource, Count: perSource,
			Seed: int64(s), DupRate: 0.05,
		}
	}
	build := func(consume func(p *construct.Pipeline, deltas []ingest.Delta) error, deltas []ingest.Delta) (float64, error) {
		kg := construct.NewKG()
		p := construct.NewPipeline(kg, ont)
		start := time.Now()
		err := consume(p, deltas)
		return float64(time.Since(start).Microseconds()) / 1000, err
	}
	fullDeltas := make([]ingest.Delta, sources)
	for s, spec := range specs {
		fullDeltas[s] = spec.Delta()
	}
	sequential := func(p *construct.Pipeline, deltas []ingest.Delta) error {
		_, err := p.ConsumeSequential(deltas)
		return err
	}
	parallel := func(p *construct.Pipeline, deltas []ingest.Delta) error {
		_, err := p.Consume(deltas)
		return err
	}

	seqMS, err := build(sequential, fullDeltas)
	if err != nil {
		return ConstructionResult{}, err
	}
	parMS, err := build(parallel, fullDeltas)
	if err != nil {
		return ConstructionResult{}, err
	}

	// Delta vs rebuild: after the initial load, a new version changes 5% of
	// one source. Rebuild re-consumes everything; delta consumes the diff.
	kg := construct.NewKG()
	p := construct.NewPipeline(kg, ont)
	if _, err := p.ConsumeSequential(fullDeltas); err != nil {
		return ConstructionResult{}, err
	}
	changed := specs[0]
	changed.Seed += 1000
	changedEnts := changed.Entities()
	smallDelta := ingest.Delta{Source: changed.Name, Updated: changedEnts[:perSource/20]}
	start := time.Now()
	if _, err := p.ConsumeDelta(smallDelta); err != nil {
		return ConstructionResult{}, err
	}
	deltaMS := float64(time.Since(start).Microseconds()) / 1000

	rebuildMS, err := build(sequential, fullDeltas)
	if err != nil {
		return ConstructionResult{}, err
	}

	// Intra-delta ablation: one large, duplicate-heavy source whose
	// blocking/matching/clustering dominate, consumed with 1 vs N workers.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bigSpec := workload.SourceSpec{
		Name: "big", Count: 4 * perSource, DupRate: 0.15, TypoRate: 0.2,
		RichFacts: 2, Seed: 77,
	}
	intra := func(w int) (float64, *construct.KG, error) {
		kg := construct.NewKG()
		p := construct.NewPipeline(kg, ont)
		p.Workers = w
		delta := bigSpec.Delta()
		start := time.Now()
		_, err := p.ConsumeDelta(delta)
		return float64(time.Since(start).Microseconds()) / 1000, kg, err
	}
	intraSeqMS, kgSeq, err := intra(1)
	if err != nil {
		return ConstructionResult{}, err
	}
	intraParMS, kgPar, err := intra(workers)
	if err != nil {
		return ConstructionResult{}, err
	}

	return ConstructionResult{
		FullRebuildMS: rebuildMS, DeltaMS: deltaMS, DeltaSpeedup: rebuildMS / deltaMS,
		SequentialMS: seqMS, ParallelMS: parMS, ParallelSpeedup: seqMS / parMS,
		Sources: sources,
		Workers: workers, IntraSeqMS: intraSeqMS, IntraParMS: intraParMS,
		IntraSpeedup:   intraSeqMS / intraParMS,
		IntraIdentical: graphsIdentical(kgSeq, kgPar),
	}, nil
}

// graphsIdentical compares two KGs triple for triple; Graph.Triples already
// returns a canonically sorted slice.
func graphsIdentical(a, b *construct.KG) bool {
	return reflect.DeepEqual(a.Graph.Triples(), b.Graph.Triples())
}

// IndexedLinkingPoint is one checkpoint of the indexed-vs-scan ablation: a
// fixed-size probe delta consumed against a KG of the given size by both
// linking modes.
type IndexedLinkingPoint struct {
	KGEntities         int
	ScanMS, IndexedMS  float64
	ScanComparisons    int
	IndexedComparisons int
}

// IndexedLinkingResult is the incremental-blocking-index ablation: the same
// growing workload consumed by a full-scan pipeline and a block-index
// pipeline in lockstep, with a fixed-size probe delta measured at the first
// and last checkpoints. It demonstrates the Saga incremental-ingestion
// property: with the index, per-delta linking cost tracks |delta|; with the
// full scan it tracks the accumulated |KG|.
type IndexedLinkingResult struct {
	Rounds        int
	PerRound      int
	ProbeEntities int
	Points        []IndexedLinkingPoint

	// Identical reports that both modes constructed byte-identical KGs over
	// the whole run (probes included).
	Identical bool
	// DeltaScaled reports the headline claim on the deterministic comparison
	// counts: as the KG grew, the full scan's per-delta candidate volume grew
	// strictly faster than the indexed path's, and the indexed path stayed
	// strictly cheaper.
	DeltaScaled bool
	// ScanGrowth and IndexedGrowth are the last/first checkpoint comparison
	// ratios behind DeltaScaled.
	ScanGrowth, IndexedGrowth float64
	// SpeedupAtLargest is scan/indexed wall time for the probe delta at the
	// largest KG checkpoint.
	SpeedupAtLargest float64
}

// String renders the ablation.
func (r IndexedLinkingResult) String() string {
	s := fmt.Sprintf("Indexed linking ablation: %d rounds x %d entities, probe delta = %d entities\n",
		r.Rounds, r.PerRound, r.ProbeEntities)
	for _, p := range r.Points {
		s += fmt.Sprintf("  KG=%5d entities: full-scan %.1fms (%d cmp) vs indexed %.1fms (%d cmp)\n",
			p.KGEntities, p.ScanMS, p.ScanComparisons, p.IndexedMS, p.IndexedComparisons)
	}
	s += fmt.Sprintf("  comparison growth with KG: scan %.1fx vs indexed %.1fx (delta-scaled=%v); speedup at largest KG %.1fx; identical=%v\n",
		r.ScanGrowth, r.IndexedGrowth, r.DeltaScaled, r.SpeedupAtLargest, r.Identical)
	return s
}

// IndexedLinking runs the incremental-blocking-index ablation. Two pipelines
// — one probing the persistent block index, one scanning the full per-type
// KG view — consume an identical sequence of deltas over one shared entity
// type, so the KG view the scan path re-blocks keeps growing. At the first
// and last checkpoints both consume a fixed-size probe delta drawn from the
// same universe range, and the probe's wall time plus matcher-comparison
// count are recorded. Comparisons are deterministic, so DeltaScaled (indexed
// candidate volume grows with |delta|, scan volume with |KG|) is asserted on
// counts, not timings. workers sizes both pipelines; 0 means GOMAXPROCS.
func IndexedLinking(workers int) (IndexedLinkingResult, error) {
	ont := ontology.Default()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	newPipeline := func(indexed bool) (*construct.KG, *construct.Pipeline) {
		kg := construct.NewKG()
		p := construct.NewPipeline(kg, ont)
		p.Workers = workers
		if indexed {
			p.EnableBlockIndex()
		}
		return kg, p
	}
	kgScan, scan := newPipeline(false)
	kgIdx, idx := newPipeline(true)

	const rounds, perRound, probeSize = 6, 150, 40
	res := IndexedLinkingResult{Rounds: rounds, PerRound: perRound, ProbeEntities: probeSize}
	// consumeBoth feeds the same logical delta to both pipelines (payloads
	// regenerated per pipeline: consumption rewrites them in place) and
	// returns the per-pipeline wall time and comparison count.
	consumeBoth := func(spec workload.SourceSpec) (scanMS, idxMS float64, scanCmp, idxCmp int, err error) {
		start := time.Now()
		sStats, err := scan.ConsumeDelta(spec.Delta())
		if err != nil {
			return 0, 0, 0, 0, err
		}
		scanMS = float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		iStats, err := idx.ConsumeDelta(spec.Delta())
		if err != nil {
			return 0, 0, 0, 0, err
		}
		idxMS = float64(time.Since(start).Microseconds()) / 1000
		return scanMS, idxMS, sStats.Comparisons, iStats.Comparisons, nil
	}
	for r := 1; r <= rounds; r++ {
		grow := workload.SourceSpec{
			Name:   fmt.Sprintf("grow%02d", r),
			Offset: (r - 1) * perRound, Count: perRound,
			DupRate: 0.05, TypoRate: 0.1, Seed: int64(r),
		}
		if _, _, _, _, err := consumeBoth(grow); err != nil {
			return res, err
		}
		if r != 1 && r != rounds {
			continue
		}
		// Probe: a fixed-size delta over the same universe range at every
		// checkpoint, so any cost growth comes from the KG, not the delta.
		probe := workload.SourceSpec{
			Name:   fmt.Sprintf("probe%02d", r),
			Offset: 0, Count: probeSize,
			TypoRate: 0.1, Seed: int64(1000 + r),
		}
		scanMS, idxMS, scanCmp, idxCmp, err := consumeBoth(probe)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, IndexedLinkingPoint{
			KGEntities: kgScan.Graph.Len(),
			ScanMS:     scanMS, IndexedMS: idxMS,
			ScanComparisons: scanCmp, IndexedComparisons: idxCmp,
		})
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	res.ScanGrowth = float64(last.ScanComparisons) / float64(first.ScanComparisons)
	res.IndexedGrowth = float64(last.IndexedComparisons) / float64(maxInt(first.IndexedComparisons, 1))
	res.DeltaScaled = res.IndexedGrowth < res.ScanGrowth && last.IndexedComparisons < last.ScanComparisons
	res.SpeedupAtLargest = last.ScanMS / last.IndexedMS
	res.Identical = graphsIdentical(kgScan, kgIdx)
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BlockingResult is the blocking ablation: comparisons and wall time of
// blocked vs quadratic pair generation at equal linking quality.
type BlockingResult struct {
	Entities             int
	BlockedComparisons   int
	QuadraticComparisons int
	ReductionX           float64
	BlockedMS, QuadMS    float64
	BlockedF1, QuadF1    float64
}

// String renders the ablation.
func (r BlockingResult) String() string {
	return fmt.Sprintf("Blocking ablation: %d entities; comparisons %d vs %d quadratic (%.0fx fewer); time %.1fms vs %.1fms; pair F1 %.3f vs %.3f\n",
		r.Entities, r.BlockedComparisons, r.QuadraticComparisons, r.ReductionX,
		r.BlockedMS, r.QuadMS, r.BlockedF1, r.QuadF1)
}

// BlockingAblation compares blocked and quadratic pair generation on a
// two-source feed with known ground truth.
func BlockingAblation() BlockingResult {
	a := workload.SourceSpec{Name: "sa", Offset: 0, Count: 300, TypoRate: 0.25, Seed: 1}.Entities()
	b := workload.SourceSpec{Name: "sb", Offset: 0, Count: 300, TypoRate: 0.25, Seed: 2}.Entities()
	var combined []*triple.Entity
	combined = append(combined, a...)
	combined = append(combined, b...)
	// Ground truth: source-local IDs share the universe index.
	truth := func(x, y triple.EntityID) bool { return x.Local() == y.Local() && x != y }

	matcher := construct.RuleMatcher{}
	run := func(gen func() construct.BlockingResult) (construct.BlockingResult, float64, float64) {
		start := time.Now()
		blocking := gen()
		byID := make(map[triple.EntityID]*triple.Entity, len(combined))
		for _, e := range combined {
			byID[e.ID] = e
		}
		scored := construct.ScorePairs(blocking.Pairs, byID, matcher)
		tp, fp, fn := 0, 0, 0
		predicted := make(map[construct.Pair]bool)
		for _, sp := range scored {
			if sp.Score >= 0.85 {
				predicted[sp.Pair] = true
				if truth(sp.A, sp.B) {
					tp++
				} else {
					fp++
				}
			}
		}
		for _, x := range a {
			for _, y := range b {
				if truth(x.ID, y.ID) && !predicted[construct.MakePair(x.ID, y.ID)] {
					fn++
				}
			}
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		f1 := 0.0
		if 2*tp+fp+fn > 0 {
			f1 = 2 * float64(tp) / float64(2*tp+fp+fn)
		}
		return blocking, ms, f1
	}
	blocked, blockedMS, blockedF1 := run(func() construct.BlockingResult {
		return construct.GeneratePairs(combined, construct.DefaultBlocker(), construct.GenerateParams{MaxBlockSize: 1024})
	})
	quad, quadMS, quadF1 := run(func() construct.BlockingResult {
		return construct.AllPairs(combined)
	})
	return BlockingResult{
		Entities:             len(combined),
		BlockedComparisons:   blocked.Comparisons,
		QuadraticComparisons: quad.Comparisons,
		ReductionX:           float64(quad.Comparisons) / float64(blocked.Comparisons),
		BlockedMS:            blockedMS, QuadMS: quadMS,
		BlockedF1: blockedF1, QuadF1: quadF1,
	}
}

// ResolutionResult is the resolution ablation: correlation clustering vs
// greedy transitive closure against ground-truth clusters. Beyond pair F1,
// it counts constraint violations: clusters holding more than one canonical
// KG entity, which correlation clustering forbids (§2.3) and closure
// produces whenever a noisy chain connects two confusable KG entities.
type ResolutionResult struct {
	CorrelationF1                                      float64
	ClosureF1                                          float64
	CorrelationClusters, ClosureClusters, TrueClusters int
	CorrelationViolations, ClosureViolations           int

	// Worker-pool ablation: component-sharded clustering with workers=N vs
	// the single-worker reference, on the same scored candidate graph.
	Workers          int
	ResolveSeqMS     float64
	ResolveParMS     float64
	ResolveSpeedup   float64
	ResolveIdentical bool
}

// String renders the ablation.
func (r ResolutionResult) String() string {
	return fmt.Sprintf("Resolution ablation: correlation clustering F1=%.3f (%d clusters, %d KG-constraint violations) vs transitive closure F1=%.3f (%d clusters, %d violations), truth=%d; resolve workers=1 %.2fms vs workers=%d %.2fms (%.2fx, identical=%v)\n",
		r.CorrelationF1, r.CorrelationClusters, r.CorrelationViolations,
		r.ClosureF1, r.ClosureClusters, r.ClosureViolations, r.TrueClusters,
		r.ResolveSeqMS, r.Workers, r.ResolveParMS, r.ResolveSpeedup, r.ResolveIdentical)
}

// ResolutionAblation compares the clustering strategies on a noisy feed that
// also contains pairs of confusable canonical KG entities (distinct
// real-world entities sharing a name), the case where closure over-merges.
// workers sizes the parallel side of the sharded-resolution comparison;
// 0 means GOMAXPROCS.
func ResolutionAblation(workers int) ResolutionResult {
	a := workload.SourceSpec{Name: "sa", Offset: 0, Count: 150, TypoRate: 0.35, DupRate: 0.2, Seed: 3}.Entities()
	b := workload.SourceSpec{Name: "sb", Offset: 0, Count: 150, TypoRate: 0.35, DupRate: 0.2, Seed: 4}.Entities()
	var combined []*triple.Entity
	combined = append(combined, a...)
	combined = append(combined, b...)
	// Confusable KG pairs: two distinct canonical entities sharing a name
	// (for example two people called the same), each with a source record.
	for i := 0; i < 20; i++ {
		name := workload.PersonName(900 + i)
		for v := 0; v < 2; v++ {
			kgEnt := triple.NewEntity(triple.EntityID(fmt.Sprintf("kg:CONF%02d-%d", i, v)))
			kgEnt.AddFact(triple.PredType, triple.String("human"))
			kgEnt.AddFact(triple.PredName, triple.String(name))
			combined = append(combined, kgEnt)
		}
	}
	byID := make(map[triple.EntityID]*triple.Entity, len(combined))
	nodes := make([]triple.EntityID, 0, len(combined))
	for _, e := range combined {
		byID[e.ID] = e
		nodes = append(nodes, e.ID)
	}
	blocking := construct.GeneratePairs(combined, construct.DefaultBlocker(), construct.GenerateParams{MaxBlockSize: 1024})
	scored := construct.ScorePairs(blocking.Pairs, byID, construct.RuleMatcher{})

	universe := func(id triple.EntityID) string {
		local := id.Local()
		// strip the -dup suffix: duplicates share the universe entity
		if len(local) > 4 && local[len(local)-4:] == "-dup" {
			local = local[:len(local)-4]
		}
		return local
	}
	pairF1 := func(clusters []construct.Cluster) float64 {
		tp, fp := 0, 0
		trueSize := make(map[string]int)
		for _, n := range nodes {
			trueSize[universe(n)]++
		}
		truePairs := 0
		for _, n := range trueSize {
			truePairs += n * (n - 1) / 2
		}
		for _, c := range clusters {
			for i := 0; i < len(c.Members); i++ {
				for j := i + 1; j < len(c.Members); j++ {
					if universe(c.Members[i]) == universe(c.Members[j]) {
						tp++
					} else {
						fp++
					}
				}
			}
		}
		fn := truePairs - tp
		if 2*tp+fp+fn == 0 {
			return 0
		}
		return 2 * float64(tp) / float64(2*tp+fp+fn)
	}
	violations := func(clusters []construct.Cluster) int {
		n := 0
		for _, c := range clusters {
			kg := 0
			for _, m := range c.Members {
				if m.IsKG() {
					kg++
				}
			}
			if kg > 1 {
				n++
			}
		}
		return n
	}
	startSeq := time.Now()
	cc := construct.Resolve(nodes, scored, construct.ClusterParams{})
	seqMS := float64(time.Since(startSeq).Microseconds()) / 1000
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	startPar := time.Now()
	ccPar := construct.ResolveParallel(nodes, scored, construct.ClusterParams{}, workers)
	parMS := float64(time.Since(startPar).Microseconds()) / 1000
	tc := construct.TransitiveClosure(nodes, scored, 0.85)
	trueClusters := make(map[string]bool)
	for _, n := range nodes {
		trueClusters[universe(n)] = true
	}
	return ResolutionResult{
		CorrelationF1: pairF1(cc), ClosureF1: pairF1(tc),
		CorrelationClusters: len(cc), ClosureClusters: len(tc),
		TrueClusters:          len(trueClusters),
		CorrelationViolations: violations(cc),
		ClosureViolations:     violations(tc),
		Workers:               workers,
		ResolveSeqMS:          seqMS,
		ResolveParMS:          parMS,
		ResolveSpeedup:        seqMS / parMS,
		ResolveIdentical:      reflect.DeepEqual(cc, ccPar),
	}
}

// VolatileResult is the volatile-overwrite ablation: refreshing high-churn
// predicates via partition overwrite vs full update fusion.
type VolatileResult struct {
	Entities     int
	OverwriteMS  float64
	FullFusionMS float64
	Speedup      float64
}

// String renders the ablation.
func (r VolatileResult) String() string {
	return fmt.Sprintf("Volatile-overwrite ablation: %d entities; overwrite=%.1fms full-fusion=%.1fms (%.1fx)\n",
		r.Entities, r.OverwriteMS, r.FullFusionMS, r.Speedup)
}

// VolatileOverwrite measures refreshing every entity's popularity via the
// volatile path against re-fusing full payloads.
func VolatileOverwrite() (VolatileResult, error) {
	ont := ontology.Default()
	spec := workload.SourceSpec{Name: "s", Count: 600, Seed: 5}
	kg := construct.NewKG()
	p := construct.NewPipeline(kg, ont)
	if _, err := p.ConsumeDelta(spec.Delta()); err != nil {
		return VolatileResult{}, err
	}
	// Fresh payloads with changed popularity.
	churn := spec
	churn.Seed += 99
	ents := churn.Entities()
	volatileOnly := make([]*triple.Entity, 0, len(ents))
	for _, e := range ents {
		v := triple.NewEntity(e.ID)
		pop := e.First("popularity")
		if pop.IsNull() {
			continue
		}
		v.Add(triple.New("", "popularity", triple.Float(pop.Float64()*0.5)).WithSource("s", 0.85))
		volatileOnly = append(volatileOnly, v)
	}

	start := time.Now()
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Volatile: volatileOnly}); err != nil {
		return VolatileResult{}, err
	}
	overwriteMS := float64(time.Since(start).Microseconds()) / 1000

	start = time.Now()
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Updated: ents}); err != nil {
		return VolatileResult{}, err
	}
	fullMS := float64(time.Since(start).Microseconds()) / 1000

	return VolatileResult{
		Entities:    len(volatileOnly),
		OverwriteMS: overwriteMS, FullFusionMS: fullMS,
		Speedup: fullMS / overwriteMS,
	}, nil
}
