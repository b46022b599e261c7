package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"saga/bench/gen"
	"saga/bench/layers"
)

// loadConns is the number of load goroutines and read connections: nproc on
// the box the benchmark was defined on. The prober has a connection of its
// own, which carries one request at a time.
const loadConns = 2

// requestList is the length of the generated read sequence; the schedule
// cycles through it.
const requestList = 1 << 15

// ingestSeedMask tells the seed of the ingest slices' source streams from
// the seed of the serving platform's.
const ingestSeedMask = 0x1b6e

// runOptions is one run of one workload.
type runOptions struct {
	Workload Workload
	Seed     int64
	// Rounds is the number of measured rounds.
	Rounds int
	// Seconds is the run length the rounds were derived from; the layer
	// replay of a traced run takes a share of it.
	Seconds float64
	Trace   bool
	// Scratch is the directory the run keeps its data trees under.
	Scratch string
	// SpanFile is where a traced run writes its spans.
	SpanFile string
	Log      io.Writer
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // sample count and the like, for the human-readable line
}

// result is what a run reports. Every run fills EndToEnd; a traced run also
// fills PerLayer, and its end-to-end numbers carry the cost of tracing, so
// the command reports only one of the two. OverLimit counts the open-loop
// reads that took longer than readLimit from their due time, failed ones
// included; it is reported beside the read percentiles and not added to Failed,
// because a stall of the box must not look like a wrong output.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	OverLimit int
	EndToEnd  []metric
	PerLayer  []metric
	Problems  []string
}

func (r *result) endToEnd(name string, v float64, unit, note string) {
	r.EndToEnd = append(r.EndToEnd, metric{name, v, unit, note})
}

func (r *result) add(name string, v float64, unit, note string) {
	r.PerLayer = append(r.PerLayer, metric{name, v, unit, note})
}

// probe is one pre-generated freshness probe.
type probe struct {
	batch  *layers.Batch
	src    string
	marker []byte
}

// ingestInput is the input of a round's ingest slice.
type ingestInput struct {
	seed, acks, sat []gen.Batch
	truth           map[string]int
	sample          []string // source ids whose KG payloads the recovery digest covers
}

// env is a round's set-up serving platform with its server, inputs and load
// generator. Every round sets up afresh from the same seed, so the rounds do
// the same work on the same KG and differ only in how much the box was
// disturbed.
type env struct {
	dir    string
	pl     *layers.Platform
	feed   *layers.Feed
	server *httptest.Server
	load   *readLoad
	prober *http.Client
	kgIDs  []string
	names  []string

	feedBatches []*layers.Batch
	probes      []probe
	ingest      ingestInput
}

func (e *env) teardown() {
	if e.load != nil {
		e.load.close()
	}
	if e.prober != nil {
		e.prober.CloseIdleConnections()
	}
	if e.server != nil {
		e.server.Close()
	}
	if e.pl != nil {
		e.pl.Close() //nolint:errcheck // the run already reported, or is being thrown away
		e.pl = nil
	}
	os.RemoveAll(e.dir)
}

// runner carries a run's state across its rounds.
type runner struct {
	o      runOptions
	w      Workload
	tracer *Tracer
	res    result
	dirs   int

	mu sync.Mutex // guards res.Attempted, res.Failed, res.Problems
}

func (r *runner) logf(format string, args ...any) {
	if r.o.Log != nil {
		fmt.Fprintf(r.o.Log, format+"\n", args...)
	}
}

func (r *runner) attempted(n int) {
	r.mu.Lock()
	r.res.Attempted += n
	r.mu.Unlock()
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	r.res.Failed++
	if len(r.res.Problems) < 10 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *runner) config(dir string) layers.Config {
	return layers.Config{Disk: r.w.Disk, Dir: dir, CheckpointEvery: r.w.CheckpointEvery, CompactAfter: r.w.CompactAfter}
}

func (r *runner) newDir(kind string) (string, error) {
	r.dirs++
	dir := filepath.Join(r.o.Scratch, fmt.Sprintf("%s-%d", kind, r.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// submitAll submits the batches back to back and waits for every result.
func submitAll(f *layers.Feed, batches []*layers.Batch) error {
	pending := make([]layers.Pending, len(batches))
	for i, b := range batches {
		pending[i] = f.Submit(b)
	}
	for i, p := range pending {
		if ack := p.Wait(); ack.Err != nil {
			return fmt.Errorf("seed batch %d: %w", i, ack.Err)
		}
	}
	return nil
}

func convert(batches []gen.Batch) []*layers.Batch {
	out := make([]*layers.Batch, len(batches))
	for i, b := range batches {
		out[i] = layers.NewBatch(b)
	}
	return out
}

func nextN(s *gen.Stream, n int, mix gen.Mix) []gen.Batch {
	out := make([]gen.Batch, n)
	for i := range out {
		out[i] = s.Next(mix)
	}
	return out
}

// setup is everything before a round's measured slices: generate the inputs,
// open the platform, seed the KG through the feed, refresh serving, start the
// HTTP server and warm the caches.
func (r *runner) setup() (*env, error) {
	w := r.w
	dir, err := r.newDir("serve")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}

	// Inputs, in the order the run submits them: updates and overwrites
	// target entities of earlier batches.
	stream := gen.NewStream(r.o.Seed, gen.DefaultSpec())
	seed := nextN(stream, seedBatches, seedMix)
	e.names = stream.Names()
	seeded := stream.Added()
	if w.WritesBesideReads {
		e.feedBatches = convert(nextN(stream, feedPerRound, feedMix))
	}
	for i := 0; i < w.Probes; i++ {
		b, marker := stream.Probe(i)
		e.probes = append(e.probes, probe{layers.NewBatch(b), b.Deltas[0].Added[0].ID(), []byte(marker)})
	}
	ingest := gen.NewStream(r.o.Seed^ingestSeedMask, gen.DefaultSpec())
	if w.IngestMix.Adds == 0 {
		e.ingest.seed = nextN(ingest, seedBatches, seedMix)
	}
	e.ingest.acks = nextN(ingest, w.AckBatches, w.IngestMix)
	e.ingest.sat = nextN(ingest, w.SatBatches, w.IngestMix)
	e.ingest.truth = ingest.Truth
	e.ingest.sample = ingest.Added()
	sort.Strings(e.ingest.sample)
	e.ingest.sample = e.ingest.sample[:min(digestPayload, len(e.ingest.sample))]

	if e.pl, err = layers.Open(r.config(e.dir)); err != nil {
		return e, err
	}
	if e.feed, err = e.pl.Feed(); err != nil {
		return e, err
	}
	if err := submitAll(e.feed, convert(seed)); err != nil {
		return e, err
	}
	e.pl.RefreshServing()

	seen := make(map[string]bool)
	for _, src := range seeded {
		if id, ok := e.pl.Lookup(src); ok && !seen[id] {
			seen[id] = true
			e.kgIDs = append(e.kgIDs, id)
		}
	}
	if len(e.kgIDs) == 0 {
		return e, fmt.Errorf("seeding linked no entities")
	}

	handler := layers.NewHandler(e.pl)
	if r.tracer != nil {
		handler = spanMiddleware(r.tracer, handler)
	}
	e.server = httptest.NewServer(handler)
	e.load = newReadLoad(e.server.URL, gen.Requests(r.o.Seed, requestList, e.kgIDs, e.names), loadConns)
	e.load.tracer = r.tracer
	e.prober = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}

	// Warm: one pass over the head of the request list fills the plan and
	// result caches, opens the connections and learns the first bodies.
	c := &conn{client: e.load.clients[0]}
	warm := min(warmReads, len(e.load.reqs))
	for i := 0; i < warm; i++ {
		e.load.do(c, i, true, 0)
	}
	for ci := 1; ci < loadConns; ci++ {
		e.load.do(&conn{client: e.load.clients[ci]}, ci, true, 0)
	}
	r.attempted(warm + loadConns - 1)
	if n := e.load.failed.Load(); n > 0 {
		return e, fmt.Errorf("warm-up: %d reads failed: %v", n, e.load.failures)
	}
	return e, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probeLoop runs a round's freshness probes, one every period (back to back
// for 0), and returns each probe's total: Feed.Submit of the probe batch until
// the first GET /v1/entity whose payload carries the probe's marker.
// RefreshServing is called as soon as the batch's result arrives, because it
// is the only path to the live store today.
func (r *runner) probeLoop(e *env, probes []probe, start time.Time, period time.Duration) []float64 {
	var totals []float64
	var buf bytes.Buffer
probes:
	for k, pr := range probes {
		if wait := time.Until(start.Add(time.Duration(k) * period)); wait > 0 {
			time.Sleep(wait)
		}
		r.attempted(1)
		id := r.tracer.ID()
		t0 := time.Now()
		ack := e.feed.Submit(pr.batch).Wait()
		t1 := time.Now()
		if ack.Err != nil {
			r.fail("probe %s: %v", pr.src, ack.Err)
			continue
		}
		kgID, ok := ack.KGID(pr.src)
		if !ok {
			r.fail("probe: batch result carries no link for %s", pr.src)
			continue
		}
		e.pl.RefreshServing()
		t2 := time.Now()
		visible := false
		for try := 0; try < 100 && !visible; try++ {
			resp, err := e.prober.Get(e.server.URL + "/v1/entity?id=" + url.QueryEscape(kgID))
			if err != nil {
				r.fail("probe %s: %v", pr.src, err)
				continue probes
			}
			buf.Reset()
			_, err = io.Copy(&buf, resp.Body)
			resp.Body.Close()
			visible = err == nil && resp.StatusCode == http.StatusOK && bytes.Contains(buf.Bytes(), pr.marker)
		}
		t3 := time.Now()
		if !visible {
			r.fail("probe %s: marker not visible at /v1/entity?id=%s after refresh", pr.src, kgID)
			continue
		}
		totals = append(totals, ms(t3.Sub(t0)))
		r.tracer.Record("fresh.probe", id, 0, id, t0, t3, 0)
		r.tracer.Record("fresh.ack", r.tracer.ID(), id, id, t0, t1, 0)
		r.tracer.Record("core.refresh", r.tracer.ID(), id, id, t1, t2, 0)
		r.tracer.Record("fresh.visible", r.tracer.ID(), id, id, t2, t3, 0)
	}
	return totals
}

// pacedFeed submits a round's paced feed batches on their schedule, one at a
// time.
func (r *runner) pacedFeed(e *env, batches []*layers.Batch, start time.Time) {
	period := r.w.ReadSlice / feedPerRound
	for k, b := range batches {
		// Half a period after the probes, so that a probe's refresh does not
		// start by draining a feed batch submitted in the same instant.
		if wait := time.Until(start.Add(time.Duration(k)*period + period/2)); wait > 0 {
			time.Sleep(wait)
		}
		r.attempted(1)
		id := r.tracer.ID()
		t0 := time.Now()
		ack := e.feed.Submit(b).Wait()
		if ack.Err != nil {
			r.fail("paced feed batch %d: %v", k, ack.Err)
		}
		r.tracer.Record("feed.paced_ack", id, 0, id, t0, time.Now(), 0)
	}
}

// writes runs a round's probes: back to back on their own, or with
// WritesBesideReads spread over the read slice with the paced feed beside
// them, until both are through their schedules.
func (r *runner) writes(e *env) []float64 {
	start := time.Now()
	if !r.w.WritesBesideReads {
		return r.probeLoop(e, e.probes, start, 0)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.pacedFeed(e, e.feedBatches, start)
	}()
	totals := r.probeLoop(e, e.probes, start, r.w.ReadSlice/time.Duration(len(e.probes)))
	<-done
	return totals
}

// roundStats is what one round measured.
type roundStats struct {
	setupS       float64
	reads        []readSample // open-loop slice
	probes       []float64    // ms, Submit to visible
	closedRPS    float64      // reads completed over the slice's length
	closedUnits  []float64    // s, every closedUnit back-to-back reads of one connection
	closedTraced bool         // a traced run's closed-loop slice ran with spans on
	acks         []float64    // ms, Submit to BatchResult with nothing else in flight
	satRate      float64      // entities/s of the saturating slice, drain included
	recoverS     float64
	stolen       float64 // share of the machine's processor time the hypervisor took during the round
	f1           float64
	kgEntities   int

	entities, batches, comparisons int
	allocBytes, lsnDelta           uint64
	hits, misses                   float64 // result-cache counters over the read slice, traced runs
	hitsOK                         bool
	heapLive                       uint64
	diskBytes, logBytes            int64
}

// round runs round k: set-up, the probes (unless they share the read slice),
// the closed-loop slice, the open-loop read slice and the ingest slice. The
// caller tears the returned env down.
func (r *runner) round(k int) (roundStats, *env, error) {
	w := r.w
	var st roundStats
	stolen0, ticks0 := cpuTicks()
	t := time.Now()
	e, err := r.setup()
	if err != nil {
		return st, e, fmt.Errorf("set-up: %w", err)
	}
	st.setupS = time.Since(t).Seconds()
	if !w.WritesBesideReads {
		st.probes = r.writes(e)
	}

	// Closed loop: capacity of the read mix on the quiescent store. After
	// the probes' refreshes it also learns the first bodies again and warms
	// the caches for the read slice, which walks the same stretch of the
	// request list. In a traced run the rounds alternate spans on and off;
	// the difference in throughput is what recording costs.
	e.load.forget()
	st.closedTraced = r.tracer != nil && k%2 == 0
	if !st.closedTraced {
		e.load.tracer = nil
	}
	n, d, units := e.load.closedLoop(closedSlice, true)
	e.load.tracer = r.tracer
	r.attempted(n)
	st.closedRPS, st.closedUnits = float64(n)/d.Seconds(), units

	// Open loop at the fixed rate, with the prober and the paced feed beside
	// it when the workload says so. Nothing is done about the collector: a
	// collection that slows reads is part of the tail.
	var hits0, misses0 float64
	if r.tracer != nil {
		hits0, misses0, _ = hitCounters(e.server.URL)
	}
	if w.WritesBesideReads {
		got := make(chan []float64)
		go func() { got <- r.writes(e) }()
		st.reads = e.load.openLoop(ReadRate, w.ReadSlice, false)
		st.probes = <-got
	} else {
		st.reads = e.load.openLoop(ReadRate, w.ReadSlice, true)
	}
	r.attempted(len(st.reads))
	for _, rd := range st.reads {
		if !rd.ok || rd.latMS > ms(readLimit) {
			r.res.OverLimit++
		}
	}
	if r.tracer != nil {
		hits1, misses1, ok := hitCounters(e.server.URL)
		st.hits, st.misses, st.hitsOK = hits1-hits0, misses1-misses0, ok
	}

	r.res.Failed += int(e.load.failed.Load())
	r.res.Problems = append(r.res.Problems, e.load.failures...)
	err = r.ingestSlice(&st, e.ingest)
	if stolen1, ticks1 := cpuTicks(); ticks1 > ticks0 {
		st.stolen = float64(stolen1-stolen0) / float64(ticks1-ticks0)
	}
	return st, e, err
}

// stolenLimit is the share of the processors' time the hypervisor may take
// during a round (the "steal" column of /proc/stat) before the round counts
// as disturbed. An undisturbed round on the box the benchmark was defined on
// reads 0 to 0.3%; in the minutes in which the host is oversubscribed rounds
// read 3 to 20%, batches take three times as long and reads ten times.
const stolenLimit = 0.01

// cpuTicks reads the machine's processor time so far from /proc/stat: the
// clock ticks the hypervisor took from its processors to run something else
// ("steal"), and all ticks. Both are 0 where there is no such file.
func cpuTicks() (stolen, all uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	return parseCPUTicks(raw)
}

// parseCPUTicks reads the first line of a /proc/stat: "cpu", then the ticks
// spent in user, nice, system, idle, iowait, irq, softirq and steal; the guest
// ticks after them are part of user already.
func parseCPUTicks(stat []byte) (stolen, all uint64) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		all += n
		if i == 7 {
			stolen = n
		}
	}
	return stolen, all
}

// ingestSlice takes the round's ingest batches to a fresh platform through
// its standing feed: the first part one at a time, each Submit after the last
// batch's BatchResult, so that the time to a result is the feed's latency and
// not its queue length; the second part as fast as Submit takes them (it
// blocks while the commit queue is full), then Feed.Close, so that its rate is
// the feed's throughput, drain included. Then the platform is closed and the
// same durable tree opened again.
func (r *runner) ingestSlice(st *roundStats, in ingestInput) error {
	dir, err := r.newDir("ingest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pl, err := layers.Open(r.config(dir))
	if err != nil {
		return err
	}
	defer func() {
		if pl != nil {
			pl.Close() //nolint:errcheck // an error return is on its way
		}
	}()
	feed, err := pl.Feed()
	if err != nil {
		return err
	}
	if err := submitAll(feed, convert(in.seed)); err != nil {
		return err
	}
	acks, sat := convert(in.acks), convert(in.sat)

	var m0, m1 runtime.MemStats
	lsn0 := pl.LogLSN()
	runtime.ReadMemStats(&m0)
	for k, b := range acks {
		id := r.tracer.ID()
		t0 := time.Now()
		ack := feed.Submit(b).Wait()
		t1 := time.Now()
		if ack.Err != nil {
			r.fail("ingest batch %d: %v", k, ack.Err)
		}
		st.acks = append(st.acks, ms(t1.Sub(t0)))
		st.comparisons += ack.Comparisons
		st.entities += b.Entities
		r.tracer.Record("feed.ack", id, 0, id, t0, t1, 0)
	}
	satEntities := 0
	pending := make([]layers.Pending, len(sat))
	start := time.Now()
	for k, b := range sat {
		id := r.tracer.ID()
		t0 := time.Now()
		pending[k] = feed.Submit(b)
		r.tracer.Record("feed.submit", id, 0, id, t0, time.Now(), 0)
		satEntities += b.Entities
	}
	if err := feed.Close(); err != nil {
		r.fail("feed close: %v", err)
	}
	st.satRate = float64(satEntities) / time.Since(start).Seconds()
	for k, p := range pending {
		ack := p.Wait()
		if ack.Err != nil {
			r.fail("ingest batch %d: %v", len(acks)+k, ack.Err)
		}
		st.comparisons += ack.Comparisons
	}
	runtime.ReadMemStats(&m1)
	st.entities += satEntities
	st.batches = len(acks) + len(sat)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.lsnDelta = pl.LogLSN() - lsn0
	r.attempted(st.batches)

	// Linking quality, and that every source entity got a link.
	cluster := make(map[string]string, len(in.truth))
	for src := range in.truth {
		if id, ok := pl.Lookup(src); ok {
			cluster[src] = id
		}
	}
	if missing := len(in.truth) - len(cluster); missing > 0 {
		r.fail("%d added source entities have no link", missing)
	}
	st.f1 = gen.PairwiseF1(cluster, in.truth)
	st.kgEntities = pl.KGEntities()
	// Live heap of a process that serves one KG and has just built another,
	// the benchmark's own inputs and samples included.
	runtime.GC()
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	st.heapLive = heap.HeapAlloc

	// Recovery: close, then open the same durable tree again.
	var sample []string
	for _, src := range in.sample {
		if id, ok := cluster[src]; ok {
			sample = append(sample, id)
		}
	}
	before, err := pl.Digest(sample)
	if err != nil {
		return err
	}
	err = pl.Close()
	pl = nil
	if err != nil {
		r.fail("close: %v", err)
	}
	st.diskBytes, st.logBytes = dirBytes(dir), dirBytes(filepath.Join(dir, "oplog"))
	r.attempted(1)
	id, t := r.tracer.ID(), time.Now()
	if pl, err = layers.Open(r.config(dir)); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	st.recoverS = time.Since(t).Seconds()
	r.tracer.Record("core.recover", id, 0, id, t, time.Now(), 0)
	if after, err := pl.Digest(sample); err != nil || after != before {
		r.fail("reopen: digest of KG triples, link table and payload sample differs (%v)", err)
	}
	err = pl.Close()
	pl = nil
	if err != nil {
		r.fail("close after reopen: %v", err)
	}
	return nil
}

// hitCounters reads the result-cache counters from GET /v1/stats. The fields
// are read leniently: ok is false when they are gone.
func hitCounters(base string) (hits, misses float64, ok bool) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return 0, 0, false
	}
	defer resp.Body.Close()
	var body struct {
		Serving map[string]any `json:"serving"`
	}
	if json.NewDecoder(resp.Body).Decode(&body) != nil {
		return 0, 0, false
	}
	h, hok := body.Serving["result_hits"].(float64)
	m, mok := body.Serving["result_misses"].(float64)
	return h, m, hok && mok
}

// run runs one workload once.
func run(o runOptions) (result, error) {
	r := &runner{o: o, w: o.Workload}
	if o.Trace {
		r.tracer = newTracer()
	}

	runtime.GC()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	// The last round's serving platform stays up for the layer replay.
	var e *env
	defer func() {
		if e != nil {
			e.teardown()
		}
	}()
	// A round during which the hypervisor took the processors away is a
	// measurement of the neighbours, so it is run again, up to half as many
	// rounds again as the run was given, and for as long as enough calm
	// rounds can still come together to be the run.
	most, enough := o.Rounds+o.Rounds/2, o.Rounds-o.Rounds/3
	var all, calm []roundStats
	for k := 0; k < o.Rounds || (len(calm) < o.Rounds && len(calm)+most-k >= enough && k < most); k++ {
		if e != nil {
			e.teardown()
			e = nil // a round's heap figure must not hold the last round's inputs
		}
		var st roundStats
		var err error
		if st, e, err = r.round(k); err != nil {
			return r.res, fmt.Errorf("round %d: %w", k, err)
		}
		all = append(all, st)
		if st.stolen <= stolenLimit {
			calm = append(calm, st)
		}
	}
	runtime.ReadMemStats(&gc1)
	// The calm rounds are the run, unless so few are left that the
	// percentiles would run out of samples: then all rounds are.
	rounds := calm
	if len(calm) < enough {
		rounds = all
	}
	r.logf("%d rounds ran, %d of them with more than %g%% of the processors' time stolen (marked *); the figures are those of %d rounds",
		len(all), len(all)-len(calm), 100*stolenLimit, len(rounds))
	r.logf("serving KG %d entities, %d read connections, GOMAXPROCS %d", e.pl.KGEntities(), loadConns, runtime.GOMAXPROCS(0))
	r.logf("round  set-up s  serve p50 ms  serve p90 ms  fresh p50 ms  ack p50 ms  closed req/s  ingest ent/s  recover s  stolen %%")
	for k, st := range all {
		lat := make([]float64, len(st.reads))
		for i, rd := range st.reads {
			lat[i] = rd.latMS
		}
		mark := ""
		if st.stolen > stolenLimit {
			mark = " *"
		}
		r.logf("%5d  %8.3f  %12.4f  %12.4f  %12.3f  %10.3f  %12.0f  %12.0f  %9.4f  %8.1f%s", k, st.setupS, median(lat), quantile(lat, 0.90), median(st.probes), median(st.acks), st.closedRPS, st.satRate, st.recoverS, 100*st.stolen, mark)
	}

	s, err := r.summarize(rounds)
	if err != nil {
		return r.res, err
	}
	if o.Trace {
		if err := r.layerMetrics(e, s, &gc0, &gc1); err != nil {
			return r.res, err
		}
	}

	w := r.w
	perRound := fmt.Sprintf("median of %d rounds", len(rounds))
	r.res.endToEnd("setup_s", s.setupS, "s", perRound+", one set-up each")
	r.res.endToEnd("ingest_entities_per_s", s.satRate, "entities/s", fmt.Sprintf("%s of %d saturating batches", perRound, w.SatBatches))
	r.res.endToEnd("ingest_ack_p50_ms", s.ackP50, "ms", fmt.Sprintf("%d batches, one at a time", s.acks))
	r.res.endToEnd("ingest_ack_p95_ms", s.ackP95, "ms", fmt.Sprintf("%d batches", s.acks))
	r.res.endToEnd("ingest_alloc_kb_per_entity", float64(s.allocBytes)/1024/float64(s.entities), "KB", "TotalAlloc over the ingest slices")
	r.res.endToEnd("link_f1", s.f1, "ratio", fmt.Sprintf("%d source entities, %d KG entities", len(e.ingest.truth), s.kgEntities))
	r.res.endToEnd("recover_s", s.recoverS, "s", fmt.Sprintf("fastest of %d reopens of the same tree, KG %d entities", len(rounds), s.kgEntities))
	r.res.endToEnd("fresh_p50_ms", s.freshP50, "ms", fmt.Sprintf("%d probes", s.probes))
	r.res.endToEnd("fresh_p90_ms", s.freshP90, "ms", fmt.Sprintf("%d probes", s.probes))
	r.logf("%d open-loop reads at %d/s, from the due time: p50 %.4f ms, p90 %.4f, p99 %.4f, max %.3f, %d over the %v limit, generator late p99 %.3f (per-layer metrics: the box does not resolve them)",
		len(s.allReads), ReadRate, s.serveP50, s.serveP90, s.serveP99, s.serveMax, r.res.OverLimit, readLimit, s.lateP99)
	r.res.endToEnd("serve_closed_rps", s.closedRPS, "req/s",
		fmt.Sprintf("%d clients x %d reads over the median of %d units of %d back-to-back reads; the slices' own rates have median %.0f", loadConns, closedUnit, s.closedUnits, closedUnit, s.closedSliceRPS))
	r.res.endToEnd("heap_live_mb", s.heapLive/(1<<20), "MB", perRound+", HeapAlloc after a forced GC, before the round's ingest platform closes")
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// summary holds a run's figures over its rounds: a latency percentile over
// the samples of all rounds; what is measured once a round as the median of
// the rounds, but for the reopen, which repeats the same work and takes the
// fastest; the closed loop as the median over its units of closedUnit reads.
type summary struct {
	probes, acks int

	serveP50, serveP90, serveP99 float64
	serveMax, lateP99            float64
	freshP50, freshP90           float64
	ackP50, ackP95               float64

	setupS, satRate, recoverS float64
	closedRPS, closedSliceRPS float64
	closedUnits               int
	traceOverhead             float64
	heapLive                  float64

	// Taken from the last round.
	f1                  float64
	kgEntities          int
	diskBytes, logBytes int64

	// Sums over the rounds.
	entities, batches, comparisons int
	allocBytes, lsnDelta           uint64
	hits, misses                   float64
	hitsOK                         bool

	allReads []readSample
}

func (r *runner) summarize(rounds []roundStats) (summary, error) {
	var (
		s                     summary
		lat, late             []float64
		probes, acks          []float64
		sat, rec, on, off, cl []float64
		units                 []float64
		setups, heaps         []float64
	)
	s.hitsOK = true
	for k, st := range rounds {
		for _, rd := range st.reads {
			lat, late = append(lat, rd.latMS), append(late, rd.late)
			s.serveMax = max(s.serveMax, rd.latMS)
		}
		s.allReads = append(s.allReads, st.reads...)
		probes, acks = append(probes, st.probes...), append(acks, st.acks...)
		sat, rec, cl = append(sat, st.satRate), append(rec, st.recoverS), append(cl, st.closedRPS)
		setups, heaps = append(setups, st.setupS), append(heaps, float64(st.heapLive))
		if st.closedTraced {
			on = append(on, st.closedRPS)
		} else {
			off = append(off, st.closedRPS)
		}
		// A traced run's figure is that of the slices that ran with spans on.
		if r.tracer == nil || st.closedTraced {
			units = append(units, st.closedUnits...)
		}
		s.entities += st.entities
		s.batches += st.batches
		s.comparisons += st.comparisons
		s.allocBytes += st.allocBytes
		s.lsnDelta += st.lsnDelta
		s.hits += st.hits
		s.misses += st.misses
		s.hitsOK = s.hitsOK && st.hitsOK
		if k > 0 && st.f1 != rounds[0].f1 {
			r.fail("round %d linked the same batches to F1 %v, round 0 to %v: construction is not deterministic", k, st.f1, rounds[0].f1)
		}
	}
	final := rounds[len(rounds)-1]
	s.f1, s.kgEntities = final.f1, final.kgEntities
	s.diskBytes, s.logBytes = final.diskBytes, final.logBytes
	s.setupS, s.satRate, s.heapLive = median(setups), median(sat), median(heaps)
	// Every round reopens a tree of the same content, so the timings differ
	// by nothing but what the box did to them: the fastest is the reopen.
	s.recoverS = slices.Min(rec)
	if len(units) == 0 {
		return s, fmt.Errorf("serve_closed_rps: no closed-loop slice completed %d reads on a connection", closedUnit)
	}
	s.closedRPS, s.closedUnits, s.closedSliceRPS = loadConns*closedUnit/median(units), len(units), median(cl)
	if len(on) > 0 && len(off) > 0 {
		// Traced run: what recording costs is the throughput of a spans-off
		// round over that of the spans-on round before it, so that a drift of
		// the box cancels.
		ratios := make([]float64, min(len(on), len(off)))
		for i := range ratios {
			ratios[i] = off[i] / on[i]
		}
		s.traceOverhead = median(ratios) - 1
	}

	var err error
	pct := func(metric string, v []float64, p float64) float64 {
		x, perr := percentile(v, p)
		if perr != nil && err == nil {
			err = fmt.Errorf("%s: %w", metric, perr)
		}
		return x
	}
	s.serveP50, s.serveP90, s.serveP99 = pct("serve.p50_ms", lat, 0.50), pct("serve.p90_ms", lat, 0.90), pct("serve.p99_ms", lat, 0.99)
	s.lateP99 = pct("load.late_p99_ms", late, 0.99)
	s.probes, s.acks = len(probes), len(acks)
	s.freshP50, s.freshP90 = pct("fresh_p50_ms", probes, 0.50), pct("fresh_p90_ms", probes, 0.90)
	s.ackP50, s.ackP95 = pct("ingest_ack_p50_ms", acks, 0.50), pct("ingest_ack_p95_ms", acks, 0.95)
	return s, err
}
