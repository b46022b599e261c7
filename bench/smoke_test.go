package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"saga/bench/gen"
)

// shrunk is the workload on a tiny input: the counts a percentile needs ten
// samples beyond it for (100 probes, 200 batches one at a time, 1000 reads)
// in one round, everything else as small as it goes.
func shrunk(w Workload) Workload {
	w.Probes = 100
	w.ReadSlice = 700 * time.Millisecond
	w.AckBatches = 200
	w.SatBatches = 4
	if w.IngestMix.Adds > 0 {
		w.IngestMix = gen.Mix{Adds: 1, Updates: 1}
	} else {
		w.IngestMix = gen.Mix{Updates: 1, Overwrites: 1}
	}
	return w
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload once, traced, for
// one shrunk round, and checks that exactly the metrics BENCHMARK.json names
// come out, once each, finite, in the unit it names. A refactor that breaks
// the benchmark's surface fails here instead of in the driver.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c manifest
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(Workloads))
	}
	check := func(t *testing.T, kind string, want []manifestMetric, got []metric) {
		t.Helper()
		seen := make(map[string]metric)
		for _, m := range got {
			if _, dup := seen[m.Name]; dup {
				t.Errorf("%s metric %s emitted twice", kind, m.Name)
			}
			seen[m.Name] = m
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s metric %s = %v", kind, m.Name, m.Value)
			}
		}
		for _, w := range want {
			m, ok := seen[w.Name]
			switch {
			case !ok && w.Name == "kgq.result_hit_ratio":
				// Left out when /v1/stats no longer carries the counters.
			case !ok:
				t.Errorf("%s metric %s is in BENCHMARK.json but was not emitted", kind, w.Name)
			case m.Unit != w.Unit:
				t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, w.Name, m.Unit, w.Unit)
			}
			delete(seen, w.Name)
		}
		for name := range seen {
			t.Errorf("%s metric %s was emitted but is not in BENCHMARK.json", kind, name)
		}
	}
	for i, cw := range c.Workloads {
		w, ok := workloadByName(cw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the benchmark has none of that name", cw.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // nothing here reads a clock against a limit
			dir := t.TempDir()
			res, err := run(runOptions{
				Workload: shrunk(w), Seed: int64(100 + i), Rounds: 1, Seconds: 1, Trace: true,
				Scratch: dir, SpanFile: dir + "/spans.jsonl",
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v, %d of %d operations failed: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			check(t, "end-to-end", c.EndToEnd, res.EndToEnd)
			check(t, "per-layer", c.PerLayer, res.PerLayer)
			for _, m := range res.EndToEnd {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			if info, err := os.Stat(dir + "/spans.jsonl"); err != nil || info.Size() == 0 {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}
