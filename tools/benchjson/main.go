// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so CI can archive each commit's benchmark metrics as a
// machine-readable artifact (BENCH_ci.json) and the performance trajectory
// of the construction and serving paths is recorded per commit.
//
// Each benchmark result line
//
//	BenchmarkFoo-8   1   123456 ns/op   4.50 speedup-x
//
// becomes {"name": "Foo", "iterations": 1, "metrics": {"ns/op": 123456,
// "speedup-x": 4.5}}. Non-benchmark lines (logs, PASS/ok) are ignored.
// Repeated lines for the same benchmark (`-count=N`) merge into one result:
// time-like metrics keep their minimum, everything else its maximum, except
// where a regression gate declares the favorable direction. The document
// records the runner environment (Go version, OS/arch, GOMAXPROCS, CPU
// model) so metric trajectories across commits are interpretable.
//
// With -compare=BASELINE.json the command additionally diffs the gated
// metrics against a committed baseline after writing the JSON, and exits
// non-zero when any gated metric regresses by more than its tolerated
// relative regression (-threshold, or the gate's own override). The gated
// metrics are a machine-relative ratio and allocation counts, so a baseline
// recorded on one machine remains meaningful on another.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed metrics.
type Result struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	// Reps counts how many result lines merged into this entry (`-count`).
	Reps    int                `json:"reps,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// Env describes the runner, so trajectories across commits are comparable.
type Env struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// Report is the document CI uploads.
type Report struct {
	Commit  string   `json:"commit,omitempty"`
	Env     Env      `json:"env"`
	Results []Result `json:"results"`
}

// Gate is one regression-gated metric. Higher declares the favorable
// direction. A ratio (speedup-x) is directly comparable across machines under
// the global -threshold; allocation counts repeat to the byte, so they set a
// tighter per-gate Threshold.
type Gate struct {
	Bench  string
	Metric string
	Higher bool // true: larger is better; false: smaller is better
	// Threshold overrides the global -threshold for this gate when > 0
	// (maximum tolerated relative regression against the baseline).
	Threshold float64
}

// gates lists the metrics the CI bench job fails on when they regress more
// than the threshold against BENCH_baseline.json.
var gates = []Gate{
	{Bench: "IndexedLinkingKGGrowth", Metric: "indexed-speedup-x", Higher: true},
	// Allocation gates on the publish → replay → checkpoint byte path
	// (internal/graphengine micro-benchmarks). B/op and allocs/op are
	// counts that repeat to the byte on any runner, so 10% is a real
	// regression — a copy or a re-encode put back — never noise.
	{Bench: "EncodeEntities", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "EncodeEntities", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	{Bench: "DecodeEntities", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "DecodeEntities", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	{Bench: "Checkpoint", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "Checkpoint", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	{Bench: "CatchUp", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "CatchUp", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	// The same allocation gate on the serving refresh (internal/live): one
	// stable-view load with 8 records replaced and every boost shifted.
	{Bench: "LoadStableView", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "LoadStableView", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	// And on a streaming write to the live store: one Put, then a snapshot,
	// at three store sizes, so a write that copies more than its path fails.
	{Bench: "PutSnapshot/570", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "PutSnapshot/570", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	{Bench: "PutSnapshot/5700", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "PutSnapshot/5700", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	{Bench: "PutSnapshot/57000", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "PutSnapshot/57000", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	// And on the construction commit path (internal/construct): one
	// link_quiet-shaped batch, each touched KG entity copied once.
	{Bench: "CommitBatch", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "CommitBatch", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	// And on recovery (internal/core): one Open plus Close of a durable
	// tree, from a checkpoint's base and a short suffix, and from the whole
	// log.
	{Bench: "Recover/checkpoint", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "Recover/checkpoint", Metric: "allocs/op", Higher: false, Threshold: 0.10},
	{Bench: "Recover/log", Metric: "B/op", Higher: false, Threshold: 0.10},
	{Bench: "Recover/log", Metric: "allocs/op", Higher: false, Threshold: 0.10},
}

// gateDirection reports the favorable direction for a metric, if gated.
func gateDirection(bench, metric string) (higher, gated bool) {
	for _, g := range gates {
		if g.Bench == bench && g.Metric == metric {
			return g.Higher, true
		}
	}
	return false, false
}

// timeLike reports whether a metric name denotes a duration or cost where
// smaller is better (the conventional merge for repeated benchmark runs).
func timeLike(metric string) bool {
	return strings.HasSuffix(metric, "ns/op") || strings.HasSuffix(metric, "-ms") ||
		strings.HasSuffix(metric, "-us") || strings.HasSuffix(metric, "B/op") ||
		strings.HasSuffix(metric, "allocs/op")
}

// conservative flips the merge direction: set when generating a baseline,
// so the committed reference records the floor of the measured distribution
// (for higher-is-better gates) instead of its peak — the regression gate
// then fires on genuine regressions, not on an unlucky rep falling short of
// a lucky baseline.
var conservative bool

// merge folds a rep's metric value into the accumulated one: gate direction
// if gated (flipped under -conservative), min for time-like metrics, max
// otherwise.
func merge(bench, metric string, old, v float64) float64 {
	if higher, gated := gateDirection(bench, metric); gated {
		if conservative {
			higher = !higher
		}
		if higher == (v > old) {
			return v
		}
		return old
	}
	if timeLike(metric) {
		if v < old {
			return v
		}
		return old
	}
	if v > old {
		return v
	}
	return old
}

// cpuModel reads the CPU model name, best-effort (Linux only).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// parse reads `go test -bench` output into a report, merging `-count` reps.
func parse(r *bufio.Scanner) (Report, error) {
	report := Report{
		Commit: os.Getenv("GITHUB_SHA"),
		Env: Env{
			GoVersion:  runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			CPUModel:   cpuModel(),
		},
		Results: []Result{},
	}
	index := make(map[string]int)
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // e.g. "BenchmarkFoo ... --- FAIL" status lines
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		metrics := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
		if at, seen := index[name]; seen {
			res := &report.Results[at]
			res.Reps++
			res.Iterations += iters
			for m, v := range metrics {
				if old, ok := res.Metrics[m]; ok {
					res.Metrics[m] = merge(name, m, old, v)
				} else {
					res.Metrics[m] = v
				}
			}
			continue
		}
		index[name] = len(report.Results)
		report.Results = append(report.Results, Result{Name: name, Iterations: iters, Reps: 1, Metrics: metrics})
	}
	return report, r.Err()
}

// compare diffs the gated metrics of current against the baseline, returning
// a line per regression beyond threshold (relative). A benchmark present in
// the baseline but missing from the current run is itself a regression —
// gate coverage must not silently disappear. Gates absent from the baseline
// (newly added benchmarks) are noted and skipped.
func compare(current, baseline Report, threshold float64) (regressions, notes []string) {
	cur := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	for _, g := range gates {
		b, ok := base[g.Bench]
		if !ok {
			notes = append(notes, fmt.Sprintf("gate %s/%s: not in baseline yet, skipped", g.Bench, g.Metric))
			continue
		}
		bv, ok := b.Metrics[g.Metric]
		if !ok {
			notes = append(notes, fmt.Sprintf("gate %s/%s: baseline lacks the metric, skipped", g.Bench, g.Metric))
			continue
		}
		c, ok := cur[g.Bench]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("gated benchmark %s missing from this run", g.Bench))
			continue
		}
		cv, ok := c.Metrics[g.Metric]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("gated metric %s/%s missing from this run", g.Bench, g.Metric))
			continue
		}
		var rel float64 // how much worse, relative to baseline
		if g.Higher {
			rel = (bv - cv) / bv
		} else {
			rel = (cv - bv) / bv
		}
		limit := threshold
		if g.Threshold > 0 {
			limit = g.Threshold
		}
		if rel > limit {
			dir := "≥"
			if !g.Higher {
				dir = "≤"
			}
			regressions = append(regressions, fmt.Sprintf(
				"%s %s regressed %.1f%% vs baseline: %.3f (want %s within %.0f%% of %.3f)",
				g.Bench, g.Metric, rel*100, cv, dir, limit*100, bv))
		}
	}
	return regressions, notes
}

func main() {
	comparePath := flag.String("compare", "", "baseline BENCH JSON to gate regressions against (empty = no gating)")
	threshold := flag.Float64("threshold", 0.15, "maximum relative regression tolerated for gated metrics")
	flag.BoolVar(&conservative, "conservative", false,
		"merge reps conservatively (floor of gated metrics) — use when generating BENCH_baseline.json from several runs")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	report, err := parse(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *comparePath == "" {
		return
	}
	data, err := os.ReadFile(*comparePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read baseline: %v\n", err)
		os.Exit(1)
	}
	var baseline Report
	if err := json.Unmarshal(data, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parse baseline: %v\n", err)
		os.Exit(1)
	}
	regressions, notes := compare(report, baseline, *threshold)
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "benchjson: note: %s\n", n)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d gated metrics within tolerance of baseline\n", len(gates))
}
