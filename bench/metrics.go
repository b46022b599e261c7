package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"time"

	"saga/bench/gen"
	"saga/bench/layers"
)

// replayShare is the share of --seconds a traced run spends replaying the
// run's inputs through each layer in isolation, on one goroutine, after the
// live windows.
const replayShare = 0.2

// replaySteps is how many replay calls split the replay budget.
const replaySteps = 18

func dirBytes(dir string) (total int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // a vanished file counts as zero
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// layerMetrics fills in the per-layer metrics of a traced run. There are two
// sources: the spans the live windows recorded around the benchmark's calls
// into the platform, and a single-goroutine replay of the run's captured
// inputs through each layer's public functions.
func (r *runner) layerMetrics(e *env, in summary, gc0, gc1 *runtime.MemStats) error {
	res := &r.res
	spans := r.tracer.Spans()
	self := selfTimes(spans)
	budget := time.Duration(replayShare*r.o.Seconds*float64(time.Second)) / replaySteps
	rec := func(name string, start time.Time, m layers.Measure) {
		r.tracer.Record("replay."+name, r.tracer.ID(), 0, 0, start, start.Add(m.Elapsed), m.Ops)
	}
	// timed runs one replay and records it as one span standing for its calls.
	timed := func(name string, fn func() (layers.Measure, error)) (layers.Measure, error) {
		start := time.Now()
		m, err := fn()
		if err != nil {
			return m, fmt.Errorf("replay %s: %w", name, err)
		}
		rec(name, start, m)
		return m, nil
	}
	plain := func(fn func() layers.Measure) func() (layers.Measure, error) {
		return func() (layers.Measure, error) { return fn(), nil }
	}

	// Checkpoint and compaction of the serving platform, called explicitly so
	// that every workload has them: two checkpoints give compaction its floor.
	var ckpt []float64
	for i := 0; i < 2; i++ {
		id, t := r.tracer.ID(), time.Now()
		if err := e.pl.Checkpoint(); err != nil {
			r.fail("checkpoint: %v", err)
		}
		ckpt = append(ckpt, ms(time.Since(t)))
		r.tracer.Record("core.checkpoint", id, 0, id, t, time.Now(), 0)
	}
	id, t := r.tracer.ID(), time.Now()
	if err := e.pl.Compact(); err != nil {
		r.fail("compact: %v", err)
	}
	compactMS := ms(time.Since(t))
	r.tracer.Record("core.compact", id, 0, id, t, time.Now(), 0)
	sample := e.pl.Sample(512)
	names := e.names
	scratch := filepath.Join(e.dir, "replay")

	// Construction side.
	res.add("construct.comparisons_per_entity", float64(in.comparisons)/float64(in.entities), "count", "exact, from SourceStats.Comparisons over the ingest slices")
	m, err := timed("construct.block_probe", plain(func() layers.Measure { return layers.ReplayBlockProbe(sample, convert(e.ingest.sat), budget) }))
	if err != nil {
		return err
	}
	res.add("construct.block_probe_us", m.Per(time.Microsecond), "us", fmt.Sprintf("per probed entity, %d", m.Ops))
	m, _ = timed("construct.fuse", plain(func() layers.Measure { return layers.ReplayFuse(sample, budget) }))
	res.add("construct.fuse_us_per_target", m.Per(time.Microsecond), "us", fmt.Sprintf("%d targets", m.Ops))
	m, _ = timed("strsim.score", plain(func() layers.Measure { return layers.ReplayScore(names, budget) }))
	res.add("strsim.score_ns_per_pair", m.Per(time.Nanosecond), "ns", fmt.Sprintf("%d pairs", m.Ops))
	m, _ = timed("truth.estimate", plain(func() layers.Measure { return layers.ReplayTruth(names, budget) }))
	res.add("truth.estimate_us_per_slot", m.Per(time.Microsecond), "us", fmt.Sprintf("%d slots", m.Ops))
	m, _ = timed("triple.graph_update", plain(func() layers.Measure { return layers.ReplayGraphUpdate(sample, budget) }))
	res.add("triple.graph_update_us", m.Per(time.Microsecond), "us", fmt.Sprintf("%d updates", m.Ops))

	// Feed.
	res.add("feed.submit_wait_ms", median(durationsMS(spans, "feed.submit")), "ms", "median time Submit blocked, saturating slices")
	res.add("feed.ack_ms", median(durationsMS(spans, "feed.ack")), "ms", "median Submit to BatchResult, one batch at a time")
	res.add("feed.paced_ack_ms", median(durationsMS(spans, "feed.paced_ack")), "ms", "median Submit to BatchResult, paced feed beside the probes")

	// Publish side.
	if m, err = timed("triple.encode", func() (layers.Measure, error) { return layers.ReplayEncode(sample, budget) }); err != nil {
		return err
	}
	res.add("triple.encode_ns_per_entity", m.Per(time.Nanosecond), "ns", fmt.Sprintf("%d entities", m.Ops))
	res.add("triple.bytes_per_entity", m.BytesPerOp(), "B", "binary record")
	if m, err = timed("triple.decode", func() (layers.Measure, error) { return layers.ReplayDecode(sample, budget) }); err != nil {
		return err
	}
	res.add("triple.decode_ns_per_entity", m.Per(time.Nanosecond), "ns", fmt.Sprintf("%d entities", m.Ops))
	if m, err = timed("oplog.append", func() (layers.Measure, error) { return layers.ReplayLogAppend(sample, budget) }); err != nil {
		return err
	}
	res.add("oplog.append_us_per_op", m.Per(time.Microsecond), "us", fmt.Sprintf("%d ops, volatile log", m.Ops))
	res.add("oplog.bytes_per_op", m.BytesPerOp(), "B", "encoded operation of 8 entity ids and 2 links")
	if m, err = timed("storage.recordlog_append", func() (layers.Measure, error) { return layers.ReplayRecordLogAppend(scratch, budget) }); err != nil {
		return err
	}
	res.add("storage.recordlog_append_us", m.Per(time.Microsecond), "us", fmt.Sprintf("%d appends, each fsynced", m.Ops))
	if m, err = timed("storage.fsync", func() (layers.Measure, error) { return layers.ReplayFsync(scratch, budget) }); err != nil {
		return err
	}
	res.add("storage.recordlog_sync_us", m.Per(time.Microsecond), "us", fmt.Sprintf("%d fsyncs of one record on the benchmark's own file", m.Ops))
	if m, err = timed("storage.blob_put", func() (layers.Measure, error) { return layers.ReplayBlobPut(scratch, budget) }); err != nil {
		return err
	}
	res.add("storage.blob_put_us", m.Per(time.Microsecond), "us", fmt.Sprintf("%d stages", m.Ops))
	if m, err = timed("storage.kv_put", func() (layers.Measure, error) { return layers.ReplayKVPut(scratch, budget) }); err != nil {
		return err
	}
	res.add("storage.kv_put_us", m.Per(time.Microsecond), "us", fmt.Sprintf("%d puts", m.Ops))
	start := time.Now()
	pub, catchup, err := layers.ReplayEngine(sample, budget)
	if err != nil {
		return fmt.Errorf("replay graphengine: %w", err)
	}
	rec("graphengine.publish", start, pub)
	rec("graphengine.catchup", start.Add(pub.Elapsed), catchup)
	res.add("graphengine.publish_us_per_op", pub.Per(time.Microsecond), "us", fmt.Sprintf("%d ops of 8 entities", pub.Ops))
	res.add("graphengine.catchup_us_per_op", catchup.Per(time.Microsecond), "us", fmt.Sprintf("%d ops of 8 entities, one graph agent", catchup.Ops))

	// Log and disk.
	res.add("core.ops_per_batch", float64(in.lsnDelta)/float64(in.batches), "count", "log LSN delta over the ingest slices / batches")
	res.add("core.checkpoint_ms", median(ckpt), "ms", "explicit checkpoint of the serving platform after the rounds")
	res.add("core.compact_ms", compactMS, "ms", "explicit compaction through the checkpoint floor")
	res.add("storage.disk_bytes_per_entity", float64(in.diskBytes)/float64(in.kgEntities), "B", fmt.Sprintf("closed data tree of the last ingest slice / %d KG entities", in.kgEntities))
	res.add("storage.log_bytes_per_entity", float64(in.logBytes)/float64(in.kgEntities), "B", "its oplog directory / KG entities")

	// Freshness path.
	ack, refresh, visible := durationsMS(spans, "fresh.ack"), durationsMS(spans, "core.refresh"), durationsMS(spans, "fresh.visible")
	res.add("fresh.ack_ms", median(ack), "ms", fmt.Sprintf("%d probes", len(ack)))
	res.add("core.refresh_ms", median(refresh), "ms", "RefreshServing per probe")
	res.add("fresh.visible_ms", median(visible), "ms", "first GET to the GET that carries the marker")
	m, _ = timed("importance.compute", plain(func() layers.Measure { return layers.ReplayImportance(e.pl, budget) }))
	res.add("importance.compute_ms", m.Per(time.Millisecond), "ms", fmt.Sprintf("%d runs over the serving platform's replica", m.Ops))
	start = time.Now()
	load, put, snap := layers.ReplayLiveLoad(sample, budget)
	rec("live.load_stable", start, load)
	rec("live.put", start.Add(load.Elapsed), put)
	rec("live.serving_snapshot", start.Add(load.Elapsed+put.Elapsed), snap)
	res.add("live.load_stable_ms", load.Per(time.Millisecond), "ms", fmt.Sprintf("%d loads of %d entities", load.Ops, sample.Len()))
	res.add("live.put_us", put.Per(time.Microsecond), "us", fmt.Sprintf("%d puts", put.Ops))
	res.add("live.serving_snapshot_us", snap.Per(time.Microsecond), "us", fmt.Sprintf("%d snapshots after a write", snap.Ops))

	// Serve path: layer by layer, then whole, over the same read sequence.
	var texts []string
	seen := make(map[string]bool)
	for _, q := range e.load.reqs {
		if (q.Class == gen.QueryHot || q.Class == gen.QueryTail) && !seen[q.Text] {
			seen[q.Text] = true
			texts = append(texts, q.Text)
		}
	}
	start = time.Now()
	parse, plan, cached, err := layers.ReplayCompile(e.pl, texts, budget)
	if err != nil {
		return fmt.Errorf("replay kgq compile: %w", err)
	}
	rec("kgq.parse", start, parse)
	rec("kgq.plan", start.Add(parse.Elapsed), plan)
	rec("kgq.plan_cached", start.Add(parse.Elapsed+plan.Elapsed), cached)
	res.add("kgq.parse_us", parse.Per(time.Microsecond), "us", fmt.Sprintf("%d texts", len(texts)))
	res.add("kgq.plan_us", plan.Per(time.Microsecond), "us", "plan of a parsed query")
	res.add("kgq.plan_cached_us", cached.Per(time.Microsecond), "us", "plan-cache hit")
	start = time.Now()
	miss, hit, err := layers.ReplayExecute(e.pl, texts, budget)
	if err != nil {
		return fmt.Errorf("replay kgq execute: %w", err)
	}
	rec("kgq.exec", start, miss)
	rec("kgq.exec_cached", start.Add(miss.Elapsed), hit)
	res.add("kgq.exec_us", miss.Per(time.Microsecond), "us", fmt.Sprintf("result miss, %d executions", miss.Ops))
	res.add("kgq.exec_cached_us", hit.Per(time.Microsecond), "us", "result-cache hit")
	start = time.Now()
	get, search := layers.ReplayLiveRead(e.pl, e.kgIDs, names, budget)
	rec("live.get", start, get)
	rec("live.search", start.Add(get.Elapsed), search)
	res.add("live.get_us", get.Per(time.Microsecond), "us", fmt.Sprintf("%d reads", get.Ops))
	res.add("live.search_us", search.Per(time.Microsecond), "us", fmt.Sprintf("%d searches", search.Ops))

	seq := e.load.reqs[:min(4096, len(e.load.reqs))]
	start = time.Now()
	path, err := layers.ReplayPath(e.pl, seq)
	if err != nil {
		return fmt.Errorf("replay serve path: %w", err)
	}
	r.tracer.Record("replay.serve.path", r.tracer.ID(), 0, 0, start, time.Now(), len(seq))
	start = time.Now()
	whole := layers.ReplayHandler(e.pl, seq)
	r.tracer.Record("replay.serve.handler", r.tracer.ID(), 0, 0, start, time.Now(), len(seq))
	if whole.Failed > 0 {
		r.fail("handler replay: %d responses were not 200", whole.Failed)
	}
	var pathAll, wholeAll time.Duration
	for c := gen.Class(0); c < gen.Classes; c++ {
		pathAll += path.ByClass[c].Elapsed
		wholeAll += whole.ByClass[c].Elapsed
	}
	res.add("serve.encode_us", path.Encode.Per(time.Microsecond), "us", fmt.Sprintf("%d response bodies", path.Encode.Ops))
	res.add("serve.envelope_us", whole.Envelope.Per(time.Microsecond), "us", "handler replay of GET /v1/healthz: mux, timeout handler, response envelope")
	res.add("serve.path_account_ratio", float64(pathAll+whole.Envelope.Elapsed)/float64(wholeAll), "ratio",
		"envelope + plan + serving snapshot + exec + encode over the handler's time, same read sequence; the issue wants within 15% of 1")
	res.add("serve.handler_self_us", float64(wholeAll-pathAll-whole.Envelope.Elapsed)/float64(len(seq))/1e3, "us", "handler time neither the envelope nor the replayed layers account for: parameter checks, result copies")
	res.add("serve.handler_allocs_per_req", whole.Allocs, "count", "handler replay, no HTTP")
	res.add("serve.handler_bytes_per_req", whole.Bytes, "B", "handler replay, no HTTP")

	// Live handler spans and the loopback's share.
	for _, route := range []string{"query", "entity", "search"} {
		d := durationsMS(spans, "serve.handler_"+route)
		res.add("serve.handler_"+route+"_us", median(d)*1e3, "us", fmt.Sprintf("%d live handler spans", len(d)))
	}
	var overhead []float64
	for _, s := range spans {
		if len(s.Name) > 5 && s.Name[:5] == "load." {
			overhead = append(overhead, float64(self[s.ID])/1e3)
		}
	}
	res.add("serve.http_overhead_us", median(overhead), "us", "loopback round trip minus the handler span, median")
	// Omitted, not failed, when /v1/stats no longer carries the counters.
	if in.hitsOK && in.hits+in.misses > 0 {
		res.add("kgq.result_hit_ratio", in.hits/(in.hits+in.misses), "ratio", "/v1/stats delta over the read slices")
	}

	// The box resolves no percentile of the open-loop reads (README.md,
	// Steadiness), so they carry no bound: the median sits between the reads
	// an idle processor picked up and those that had to wake one, the p90 and
	// the p99 on the knees of the writes beside them, of the collector and of
	// the box's stalls.
	res.add("serve.p50_ms", in.serveP50, "ms", fmt.Sprintf("%d reads at %d/s, from the due time", len(in.allReads), ReadRate))
	res.add("serve.p90_ms", in.serveP90, "ms", fmt.Sprintf("%d reads", len(in.allReads)))
	res.add("serve.p99_ms", in.serveP99, "ms", fmt.Sprintf("%d reads, max %.3f", len(in.allReads), in.serveMax))
	// Per-class latency of the open-loop window, from the due time.
	byClass := make([][]float64, gen.Classes)
	for _, s := range in.allReads {
		byClass[s.class] = append(byClass[s.class], s.latMS*1e3)
	}
	for c := gen.Class(0); c < gen.Classes; c++ {
		res.add("serve."+c.String()+"_p50_us", median(byClass[c]), "us", fmt.Sprintf("%d reads", len(byClass[c])))
	}
	res.add("serve.version_regressions", float64(e.load.regressed.Load()), "count", "responses whose store version was lower than an earlier one on the same connection")
	res.add("serve.over_limit_reads", float64(res.OverLimit), "count", fmt.Sprintf("open-loop reads that failed or took more than %v from their due time", readLimit))
	res.add("load.late_p99_ms", in.lateP99, "ms", "how late the open-loop generator sent; a high value voids the run")

	res.add("go.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count", "over the measured rounds")
	res.add("go.gc_pause_total_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, "ms", "over the measured rounds")
	res.add("go.alloc_mb_total", float64(gc1.TotalAlloc-gc0.TotalAlloc)/(1<<20), "MB", "over the measured rounds")
	res.add("trace.overhead_ratio", in.traceOverhead, "ratio", "closed-loop throughput of a round with spans off over that of the round with spans on before it, minus 1; median of the pairs")

	spans = r.tracer.Spans()
	res.add("trace.spans", float64(len(spans)), "count", r.o.SpanFile)
	if r.o.SpanFile != "" {
		if err := writeSpans(r.o.SpanFile, spans); err != nil {
			return err
		}
	}
	return nil
}
