package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"saga/internal/construct"
	"saga/internal/embed"
	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/live/kgq"
	"saga/internal/ontology"
	"saga/internal/strsim"
	"saga/internal/triple"
	"saga/internal/workload"
)

// GrowthPoint is one quarter of the Figure 12 series.
type GrowthPoint struct {
	Quarter     string
	FactsRel    float64 // relative to the first measurement
	EntitiesRel float64
	SagaOnboard bool // true from the quarter Saga lands
}

// GrowthResult reproduces Figure 12: relative KG growth with the inflection
// when Saga's incremental construction lands and new sources onboard cheaply.
type GrowthResult struct {
	Points []GrowthPoint
}

// String renders the series.
func (r GrowthResult) String() string {
	var b strings.Builder
	b.WriteString("Figure 12: relative KG growth (facts and entities vs first measurement)\n")
	for _, p := range r.Points {
		marker := ""
		if p.SagaOnboard {
			marker = "  <- Saga"
		}
		b.WriteString(fmt.Sprintf("  %-7s facts=%6.1fx entities=%5.1fx%s\n", p.Quarter, p.FactsRel, p.EntitiesRel, marker))
	}
	last := r.Points[len(r.Points)-1]
	b.WriteString(fmt.Sprintf("final: facts %.1fx, entities %.1fx (paper: ~33x facts, ~6.5x entities)\n",
		last.FactsRel, last.EntitiesRel))
	return b.String()
}

// Fig12 simulates the quarterly timeline: before Saga, the legacy platform
// onboards one small source per year and refreshes little; after Saga lands,
// self-serve onboarding adds sources every quarter and delta updates enrich
// existing entities from many sources (facts grow much faster than
// entities — the paper's 33x vs 6.5x asymmetry comes exactly from
// multi-source fusion attaching more facts per entity).
func Fig12() (GrowthResult, error) {
	kg := construct.NewKG()
	p := construct.NewPipeline(kg, ontology.Default())
	var out GrowthResult
	quarters := []string{
		"2018Q1", "2018Q3", "2019Q1", "2019Q3",
		"2020Q1", "2020Q3", "2021Q1", "2021Q3", "2022Q1",
	}
	const sagaAt = 3 // Saga lands in 2019Q3
	var base triple.Stats
	srcCount := 0
	const universe = 400
	for qi, q := range quarters {
		var deltas []ingest.Delta
		if qi < sagaAt {
			// Legacy era: one small source, narrow coverage.
			if qi == 0 {
				srcCount++
				deltas = append(deltas, workload.SourceSpec{
					Name: "legacy0", Count: 60, Seed: int64(qi), Trust: 0.8,
				}.Delta())
			}
		} else {
			// Saga era: several new sources per quarter, each a window of
			// the shared universe, contributing source-specific facts so
			// fusion multiplies facts per entity.
			for s := 0; s < 4; s++ {
				srcCount++
				deltas = append(deltas, workload.SourceSpec{
					Name:   fmt.Sprintf("src%02d", srcCount),
					Offset: (srcCount * 53) % (universe - 160), Count: 160,
					Seed: int64(100 + srcCount), Trust: 0.85, RichFacts: 3,
				}.Delta())
			}
		}
		for _, d := range deltas {
			if _, err := p.ConsumeDelta(d); err != nil {
				return out, err
			}
		}
		stats := kg.Graph.Stats()
		if qi == 0 {
			base = stats
		}
		out.Points = append(out.Points, GrowthPoint{
			Quarter:     q,
			FactsRel:    float64(stats.Facts) / float64(base.Facts),
			EntitiesRel: float64(stats.Entities) / float64(base.Entities),
			SagaOnboard: qi == sagaAt,
		})
	}
	return out, nil
}

// LatencyResult reproduces the §4.2/§6.1 serving claim: the live engine's
// query latency distribution under concurrency (paper: p95 < 20ms).
type LatencyResult struct {
	Queries       int
	Concurrency   int
	P50, P95, P99 time.Duration
	QPS           float64
}

// String renders the distribution.
func (r LatencyResult) String() string {
	return fmt.Sprintf("Live engine latency: %d queries @ %d workers: p50=%v p95=%v p99=%v (%.0f qps) (paper: p95 < 20ms)\n",
		r.Queries, r.Concurrency, r.P50, r.P95, r.P99, r.QPS)
}

// LiveLatency loads a live store and drives a concurrent mixed workload of
// KGQ queries (point lookups, traversals, searches).
func LiveLatency(queries, concurrency int) (LatencyResult, error) {
	if queries == 0 {
		queries = 4000
	}
	if concurrency == 0 {
		concurrency = 8
	}
	g := workload.MusicSpec{Artists: 150, SongsPerArtist: 8, Playlists: 100, TracksPerList: 12,
		People: 400, MediaPeople: 150, Seed: 3}.Graph()
	store := live.NewStore()
	g.Range(func(e *triple.Entity) bool {
		store.Put(e.Clone(), 0)
		return true
	})
	engine := kgq.NewEngine(store)
	templates := []string{
		`entity(type="music_artist", name=%q) | attr("genre")`,
		`entity(type="song", name=%q) | follow("performed_by") | attr("name")`,
		`search(%q, k=5) | rank() | limit(3)`,
		`entity(type="music_artist", name=%q) | in("performed_by") | limit(10) | attr("name")`,
	}
	rng := rand.New(rand.NewSource(9))
	qs := make([]string, queries)
	for i := range qs {
		tmpl := templates[rng.Intn(len(templates))]
		var arg string
		switch rng.Intn(2) {
		case 0:
			arg = workload.ArtistName(rng.Intn(150))
		default:
			arg = workload.SongTitle(rng.Intn(150 * 8))
		}
		qs[i] = fmt.Sprintf(tmpl, arg)
	}
	lat := make([]time.Duration, queries)
	var wg sync.WaitGroup
	idx := make(chan int)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				qStart := time.Now()
				if _, err := engine.Query(qs[i]); err != nil {
					panic(err) // workload bug, not a measurement
				}
				lat[i] = time.Since(qStart)
			}
		}()
	}
	for i := range qs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
	return LatencyResult{
		Queries: queries, Concurrency: concurrency,
		P50: pct(0.50), P95: pct(0.95), P99: pct(0.99),
		QPS: float64(queries) / wall.Seconds(),
	}, nil
}

// SimRecallResult reproduces the §5.1 in-text claim: learned string
// similarities improve matching recall by more than 20 points where typos
// and synonyms are present.
type SimRecallResult struct {
	DeterministicRecall float64
	LearnedRecall       float64
	GainPoints          float64
	Precision           struct{ Deterministic, Learned float64 }
}

// String renders the comparison.
func (r SimRecallResult) String() string {
	return fmt.Sprintf("Learned similarity (§5.1): recall det=%.3f learned=%.3f gain=%.1f points (paper: >20 points); precision det=%.3f learned=%.3f\n",
		r.DeterministicRecall, r.LearnedRecall, r.GainPoints,
		r.Precision.Deterministic, r.Precision.Learned)
}

// LearnedSimilarityRecall builds a synonym/typo-rich match benchmark: pairs
// of nickname aliases ("Robert"/"Bob" style) that deterministic similarity
// scores below threshold but a distant-supervision-trained encoder learns.
func LearnedSimilarityRecall() SimRecallResult {
	nickGroups := [][]string{
		{"robert", "bob", "rob", "bobby", "robbie"},
		{"william", "bill", "will", "billy", "liam"},
		{"elizabeth", "liz", "beth", "eliza", "betty"},
		{"margaret", "peggy", "meg", "maggie", "marge"},
		{"richard", "dick", "rick", "richie", "ricky"},
		{"john", "jack", "johnny", "jon"},
		{"katherine", "kate", "katie", "kathy", "kit"},
		{"edward", "ed", "ted", "ned", "eddie"},
		{"charles", "chuck", "charlie", "chas"},
		{"james", "jim", "jimmy", "jamie"},
	}
	var groups []strsim.AliasGroup
	for i, g := range nickGroups {
		groups = append(groups, strsim.AliasGroup{Entity: fmt.Sprintf("p%d", i), Aliases: g})
	}
	triplets := strsim.BuildTriplets(groups, strsim.TripletOptions{PerGroup: 60, TypoAugment: true, Seed: 5})
	enc := strsim.NewEncoder(32, 2048, 2, 3, rand.New(rand.NewSource(2)))
	enc.Train(triplets, strsim.TrainOptions{Epochs: 40, LR: 0.08, Seed: 8})

	// Evaluation pairs: positives are within-group alias pairs, negatives
	// cross-group pairs; both scored by each similarity at threshold 0.5.
	type pair struct {
		a, b  string
		match bool
	}
	var pairs []pair
	for gi, g := range nickGroups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				pairs = append(pairs, pair{g[i], g[j], true})
			}
			og := nickGroups[(gi+1)%len(nickGroups)]
			pairs = append(pairs, pair{g[i], og[i%len(og)], false})
		}
	}
	eval := func(score func(a, b string) float64, threshold float64) (recall, precision float64) {
		tp, fp, fn := 0, 0, 0
		for _, p := range pairs {
			pred := score(p.a, p.b) >= threshold
			switch {
			case pred && p.match:
				tp++
			case pred && !p.match:
				fp++
			case !pred && p.match:
				fn++
			}
		}
		if tp+fn > 0 {
			recall = float64(tp) / float64(tp+fn)
		}
		if tp+fp > 0 {
			precision = float64(tp) / float64(tp+fp)
		}
		return recall, precision
	}
	detR, detP := eval(func(a, b string) float64 { return strsim.JaroWinkler(a, b) }, 0.82)
	lrnR, lrnP := eval(func(a, b string) float64 { return (enc.Similarity(a, b) + 1) / 2 }, 0.75)
	out := SimRecallResult{
		DeterministicRecall: detR,
		LearnedRecall:       lrnR,
		GainPoints:          (lrnR - detR) * 100,
	}
	out.Precision.Deterministic = detP
	out.Precision.Learned = lrnP
	return out
}

// EmbeddingResult reproduces the §5.3 training comparison: buffer-aware
// partition scheduling (Marius-style) vs a naive random bucket order, plus
// model quality for both supported models.
type EmbeddingResult struct {
	AwareSwaps, RandomSwaps          int
	AwareIOBytes, RandomIOBytes      int64
	IOReduction                      float64
	TransEMeanRank, DistMultMeanRank float64
	Entities                         int
}

// String renders the comparison.
func (r EmbeddingResult) String() string {
	return fmt.Sprintf("Embedding training (§5.3): buffer-aware swaps=%d io=%dB vs random swaps=%d io=%dB (%.1fx less IO); mean rank: TransE=%.1f DistMult=%.1f over %d entities (random ~%d)\n",
		r.AwareSwaps, r.AwareIOBytes, r.RandomSwaps, r.RandomIOBytes, r.IOReduction,
		r.TransEMeanRank, r.DistMultMeanRank, r.Entities, r.Entities/2)
}

// EmbeddingTraining runs the external-memory simulation and quality check.
func EmbeddingTraining() (EmbeddingResult, error) {
	g := workload.MusicSpec{Artists: 40, SongsPerArtist: 6, Playlists: 30, TracksPerList: 8,
		People: 100, MediaPeople: 40, Seed: 21}.Graph()
	es := embed.EdgesFromGraph(g)
	opts := embed.TrainOptions{Kind: embed.TransE, Dim: 24, Epochs: 4, Seed: 3}
	popts := embed.PartitionOptions{Partitions: 8, BufferCap: 2}

	_, aware, err := embed.TrainPartitioned(es, opts, embed.PartitionOptions{
		Partitions: popts.Partitions, BufferCap: popts.BufferCap, Ordering: embed.OrderBufferAware})
	if err != nil {
		return EmbeddingResult{}, err
	}
	_, random, err := embed.TrainPartitioned(es, opts, embed.PartitionOptions{
		Partitions: popts.Partitions, BufferCap: popts.BufferCap, Ordering: embed.OrderRandom})
	if err != nil {
		return EmbeddingResult{}, err
	}
	transE, err := embed.Train(es, embed.TrainOptions{Kind: embed.TransE, Dim: 24, Epochs: 15, Seed: 3})
	if err != nil {
		return EmbeddingResult{}, err
	}
	distMult, err := embed.Train(es, embed.TrainOptions{Kind: embed.DistMult, Dim: 24, Epochs: 15, Seed: 3})
	if err != nil {
		return EmbeddingResult{}, err
	}
	test := es.Edges
	if len(test) > 100 {
		test = test[:100]
	}
	return EmbeddingResult{
		AwareSwaps: aware.Swaps, RandomSwaps: random.Swaps,
		AwareIOBytes: aware.BytesLoaded, RandomIOBytes: random.BytesLoaded,
		IOReduction:      float64(random.BytesLoaded) / float64(aware.BytesLoaded),
		TransEMeanRank:   embed.MeanRank(transE, test),
		DistMultMeanRank: embed.MeanRank(distMult, test),
		Entities:         len(es.Entities),
	}, nil
}
