// Command bench is the repo's benchmark: it drives the real platform in one
// process through its production surface (core.Open, the standing feed,
// RefreshServing, the /v1 HTTP tier on a loopback server), measures the
// end-to-end metrics a user of the system sees, checks the outputs, and in a
// traced run breaks the time down by layer. README.md defines the metrics and
// workloads; BENCHMARK.json at the repo root is the contract.
//
//	bash bench/run.sh --workload churn_fresh --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --repeat --seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// buildDir is where a run keeps everything it writes: data trees, span
// files. run.sh puts the build cache and the binary there too, and the root
// .gitignore names it.
const buildDir = ".bench_build"

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: link_quiet or churn_fresh")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 30, "length of the measured rounds, all together")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		repeat   = flag.Bool("repeat", false, "run every workload twice and compare the two sets against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *repeat {
		os.Exit(repeatSets(*seed, *seconds))
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := runOptions{
		Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Rounds:  max(1, int(math.Round(*seconds/roundSeconds))),
		Scratch: scratch, Log: os.Stdout,
	}
	if opts.Trace {
		opts.SpanFile = filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", w.Name, *seed))
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.Name, *seed, *seconds, *trace)
	res, err := run(opts)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out := jsonResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]jsonMetric)}
	metrics := res.EndToEnd
	if opts.Trace {
		metrics = res.PerLayer
	}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s is not finite\n", m.Name)
			os.Exit(1)
		}
		fmt.Printf("%-34s %14.4f %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	fmt.Printf("operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Println("  failed:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// manifest is the part of BENCHMARK.json the repeat mode and the smoke test
// read.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repeatSets runs two full sets of untraced runs of the same code, each run
// in a process of its own as the driver does, and prints per workload and
// metric the two values, how much the second is worse than the first, and
// the bound. It returns non-zero when a difference exceeds its bound or an
// operation failed: the benchmark does not repeat well enough to judge a
// change by.
func repeatSets(seed int64, seconds float64) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repo root:", err)
		return 1
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range mf.Workloads {
		var sets [2]jsonResult
		for i := range sets {
			out, err := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", "0").Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s set %d: %v\n", w.Name, i+1, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sets[i]); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s set %d: %v\n", w.Name, i+1, err)
				return 1
			}
			if sets[i].Failed > 0 || !sets[i].Correct {
				fmt.Printf("%s set %d: %d of %d operations failed\n", w.Name, i+1, sets[i].Failed, sets[i].Attempted)
				status = 1
			}
		}
		for _, m := range mf.EndToEnd {
			a, b := sets[0].Metrics[m.Name].Value, sets[1].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if math.Abs(worse) > m.Bound {
				verdict, status = "EXCEEDS", 1
			}
			fmt.Printf("%-18s %-28s %12.4f %12.4f  %+7.2f%%  bound %5.1f%%  %s\n",
				w.Name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return status
}
