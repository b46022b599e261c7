package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"time"

	"saga/internal/core"
	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/live/kgq"
	"saga/internal/serve"
	"saga/internal/triple"
	"saga/internal/workload"
)

// ServeUnderIngestResult is the production serving-tier benchmark: the
// /v1 HTTP API driven by concurrent mixed KGQ/entity/search traffic while a
// standing construction feed churns the stable KG and a streaming source
// writes live events — the paper's low-latency-serving-under-ingestion
// regime (§4, §6.1). Queries read versioned immutable snapshots of the live
// store, so ingestion writes never block them.
type ServeUnderIngestResult struct {
	Requests int // HTTP requests served
	Clients  int // concurrent client goroutines

	P50MS, P99MS float64 // request latency percentiles over loopback HTTP
	QPS          float64 // requests / wall seconds

	// CachedSpeedup compares the serving fast path (plan cache + snapshot
	// + result cache) against uncached locked execution of the same plan.
	CachedSpeedup float64
	// CacheIdentical reports the correctness property: cached and uncached
	// executions pinned to the same snapshot returned byte-identical
	// results (JSON) at every probe while ingestion kept writing.
	CacheIdentical bool
	// HitRate is the serving tier's result-cache hit fraction, read from
	// /v1/stats after the traffic run.
	HitRate float64
	// LiveWrites counts live-store events applied during the traffic run —
	// the ingestion the serving path never blocked on.
	LiveWrites int
}

// String renders the benchmark.
func (r ServeUnderIngestResult) String() string {
	return fmt.Sprintf("Serve under ingest: %d requests @ %d clients: p50=%.2fms p99=%.2fms (%.0f qps), cached fast path %.1fx vs uncached, result-cache hit rate %.2f, %d live writes during traffic, cached==uncached: %v\n",
		r.Requests, r.Clients, r.P50MS, r.P99MS, r.QPS,
		r.CachedSpeedup, r.HitRate, r.LiveWrites, r.CacheIdentical)
}

// ServeUnderIngest builds a platform, seeds it from synthetic sources, then
// measures the serving tier under concurrent ingestion: a standing feed
// churns volatile facts through stable construction while a streaming writer
// updates live entities, and clients hammer /v1/query, /v1/entity, and
// /v1/search over loopback HTTP.
func ServeUnderIngest(requests, clients int) (ServeUnderIngestResult, error) {
	if requests <= 0 {
		requests = 3000
	}
	if clients <= 0 {
		clients = 8
	}
	res := ServeUnderIngestResult{Requests: requests, Clients: clients}

	p, err := core.Open(core.Options{})
	if err != nil {
		return res, err
	}
	defer p.Close()
	for s := 0; s < 3; s++ {
		spec := workload.SourceSpec{
			Name: fmt.Sprintf("src%02d", s), Offset: s * 80, Count: 160,
			Seed: int64(s + 1), RichFacts: 2,
		}
		if _, err := p.ConsumeDelta(spec.Delta()); err != nil {
			return res, err
		}
	}
	p.RefreshServing()

	view := p.Live.Current()
	ids := view.ByType("human")
	if len(ids) == 0 {
		return res, fmt.Errorf("serving: seeded store has no human entities")
	}
	names := make([]string, 0, len(ids))
	for _, id := range ids {
		if n := view.GetShared(id).Name(); n != "" {
			names = append(names, n)
		}
	}

	// Hot query set: small enough that the plan and result caches carry
	// most of the traffic, mixed enough to exercise index scans,
	// traversals, ranking, and search.
	queries := make([]string, 0, 16)
	for i := 0; i < 12; i++ {
		queries = append(queries,
			fmt.Sprintf(`entity(type="human", name=%q) | attr("name")`, names[i*len(names)/12]))
	}
	queries = append(queries,
		`entity(type="human") | rank() | limit(5) | attr("name")`,
		`entity(type="human") | filter("popularity", gt=0.2) | limit(10)`,
		fmt.Sprintf(`search(%q, k=5) | rank() | limit(3)`, names[0]),
		fmt.Sprintf(`search(%q, k=8)`, names[len(names)/2]),
	)

	srv := serve.New(p, serve.Options{RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ingestion load. Construction half: a standing feed consuming
	// volatile churn batches. Streaming half: live events rewriting scores
	// in the live store — the writes serving reads used to lock against.
	// Both are paced: the benchmark measures the serving path under
	// sustained realistic ingestion, not CPU starvation from an unbounded
	// construction loop.
	stop := make(chan struct{})
	var ingestWG sync.WaitGroup
	feed, err := p.Feed(core.FeedOptions{})
	if err != nil {
		return res, err
	}
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		rng := rand.New(rand.NewSource(17))
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			churn := make([]*triple.Entity, 0, 24)
			for u := 0; u < 24; u++ {
				e := triple.NewEntity(triple.EntityID(fmt.Sprintf("src00:e%d", rng.Intn(160))))
				e.Add(triple.New("", "popularity", triple.Float(rng.Float64())).WithSource("src00", 0.9))
				churn = append(churn, e)
			}
			<-feed.Submit([]ingest.Delta{{Source: "src00", Volatile: churn}})
		}
	}()
	liveWrites := 0
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		n := 0
		for {
			select {
			case <-stop:
				liveWrites = n
				return
			case <-time.After(500 * time.Microsecond):
			}
			if _, err := p.LiveConstructor.Consume(liveEvent(n)); err == nil {
				n++
			}
		}
	}()

	// Traffic: clients drain a shared request sequence — 60% KGQ, 20%
	// entity lookups, 20% search.
	urls := make([]string, requests)
	rng := rand.New(rand.NewSource(23))
	for i := range urls {
		switch {
		case i%5 < 3:
			urls[i] = ts.URL + "/v1/query?q=" + url.QueryEscape(queries[rng.Intn(len(queries))])
		case i%5 == 3:
			urls[i] = ts.URL + "/v1/entity?id=" + url.QueryEscape(string(ids[rng.Intn(len(ids))]))
		default:
			urls[i] = ts.URL + "/v1/search?q=" + url.QueryEscape(names[rng.Intn(len(names))]) + "&k=5"
		}
	}
	lat := make([]time.Duration, requests)
	var wg sync.WaitGroup
	idx := make(chan int)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for i := range idx {
				qStart := time.Now()
				resp, err := client.Get(urls[i])
				if err != nil {
					panic(err) // loopback harness bug, not a measurement
				}
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					panic(fmt.Sprintf("serving: %s -> %d: %s", urls[i], resp.StatusCode, body))
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat[i] = time.Since(qStart)
			}
		}()
	}
	for i := range urls {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start)

	// Serving-tier cache counters, from the API itself.
	var stats struct {
		Serving struct {
			ResultHits   uint64 `json:"result_hits"`
			ResultMisses uint64 `json:"result_misses"`
		} `json:"serving"`
	}
	if resp, err := http.Get(ts.URL + "/v1/stats"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
	}
	if total := stats.Serving.ResultHits + stats.Serving.ResultMisses; total > 0 {
		res.HitRate = float64(stats.Serving.ResultHits) / float64(total)
	}

	// Correctness probe while ingestion is still churning: the cached
	// serving path and a cache-less engine, pinned to the same snapshot,
	// must produce byte-identical results.
	res.CacheIdentical = true
	for probe := 0; probe < 40 && res.CacheIdentical; probe++ {
		probeEng := kgq.NewEngine(p.Live) // fresh engine: empty plan and result caches
		q := queries[probe%len(queries)]
		sn := p.Live.Current()
		plan, err := p.LiveEngine.PlanText(q)
		if err != nil {
			return res, err
		}
		parsed, err := kgq.Parse(q)
		if err != nil {
			return res, err
		}
		freshPlan, err := probeEng.Plan(parsed)
		if err != nil {
			return res, err
		}
		if _, err := p.LiveEngine.ExecuteOn(plan, sn); err != nil {
			return res, err
		}
		// The second read is served from the result cache.
		cached, err := p.LiveEngine.ExecuteOn(plan, sn)
		if err != nil {
			return res, err
		}
		// A live-store view bypasses the result cache — but reads the
		// moving store, so re-pin the comparison to the same snapshot by
		// executing on sn with an engine that has never seen the plan.
		uncached, err := probeEng.ExecuteOn(freshPlan, sn)
		if err != nil {
			return res, err
		}
		a, _ := json.Marshal(cached)
		b, _ := json.Marshal(uncached)
		if !bytes.Equal(a, b) {
			res.CacheIdentical = false
		}
		time.Sleep(200 * time.Microsecond)
	}

	close(stop)
	ingestWG.Wait()
	_ = feed.Close()
	feed.Drain()

	// Fast-path ablation on the quiesced store: result-cached snapshot
	// execution vs uncached locked execution of the same compiled plan.
	hot := queries[len(queries)-4] // the rank/limit pipeline — real work when uncached
	plan, err := p.LiveEngine.PlanText(hot)
	if err != nil {
		return res, err
	}
	uncachedEng := kgq.NewEngine(p.Live)
	const reps = 4000
	cStart := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := p.LiveEngine.Execute(plan); err != nil {
			return res, err
		}
	}
	cachedNS := float64(time.Since(cStart).Nanoseconds()) / reps
	uStart := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := uncachedEng.ExecuteOn(plan, p.Live); err != nil {
			return res, err
		}
	}
	uncachedNS := float64(time.Since(uStart).Nanoseconds()) / reps
	res.CachedSpeedup = uncachedNS / cachedNS

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		return float64(lat[int(p*float64(len(lat)-1))].Microseconds()) / 1000
	}
	res.P50MS = pct(0.50)
	res.P99MS = pct(0.99)
	res.QPS = float64(requests) / wall.Seconds()
	res.LiveWrites = liveWrites
	return res, nil
}

// liveEvent synthesizes one streaming score update.
func liveEvent(n int) live.Event {
	return live.Event{
		Source: "scores",
		Type:   "game",
		ID:     fmt.Sprintf("game%d", n%50),
		Facts: map[string]triple.Value{
			"home_score": triple.Float(float64(n % 120)),
			"status":     triple.String("in_progress"),
		},
	}
}
