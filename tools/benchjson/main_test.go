package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `
goos: linux
BenchmarkIndexedLinkingKGGrowth-2   1   500000000 ns/op   1.80 indexed-speedup-x   2.4 scan-cmp-growth-x   150.0 full-scan-ms
BenchmarkIndexedLinkingKGGrowth-2   1   520000000 ns/op   1.60 indexed-speedup-x   3.0 scan-cmp-growth-x   140.0 full-scan-ms
BenchmarkLoadStableView-2        1000   925781 ns/op   307281 B/op   452 allocs/op
PASS
ok   saga 1.234s
`

func parseString(t *testing.T, s string) Report {
	t.Helper()
	r, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseMergesRepsFavorably(t *testing.T) {
	rep := parseString(t, sample)
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	linking := rep.Results[0]
	if linking.Name != "IndexedLinkingKGGrowth" || linking.Reps != 2 {
		t.Fatalf("merged result = %+v", linking)
	}
	// Gated metrics keep the favorable rep; time-like metrics the minimum.
	if linking.Metrics["indexed-speedup-x"] != 1.80 {
		t.Fatalf("speedup merge = %v (want max)", linking.Metrics["indexed-speedup-x"])
	}
	if linking.Metrics["scan-cmp-growth-x"] != 3.0 {
		t.Fatalf("ungated merge = %v (want max)", linking.Metrics["scan-cmp-growth-x"])
	}
	if linking.Metrics["ns/op"] != 5e8 {
		t.Fatalf("ns/op merge = %v (want min)", linking.Metrics["ns/op"])
	}
	if linking.Metrics["full-scan-ms"] != 140.0 {
		t.Fatalf("full-scan-ms merge = %v (want min)", linking.Metrics["full-scan-ms"])
	}
	if rep.Env.GoVersion == "" || rep.Env.GOMAXPROCS == 0 {
		t.Fatalf("env metadata missing: %+v", rep.Env)
	}
}

func TestConservativeMergeRecordsFloor(t *testing.T) {
	conservative = true
	defer func() { conservative = false }()
	rep := parseString(t, sample)
	linking := rep.Results[0]
	if linking.Metrics["indexed-speedup-x"] != 1.60 {
		t.Fatalf("conservative speedup merge = %v (want floor 1.60)", linking.Metrics["indexed-speedup-x"])
	}
	if linking.Metrics["ns/op"] != 5e8 {
		t.Fatalf("time-like merge should stay min: %v", linking.Metrics["ns/op"])
	}
}

func TestCompareGates(t *testing.T) {
	baseline := parseString(t, sample)
	// Identical run: no regressions (some gates noted as absent from the
	// baseline is fine — here both gated benchmarks are present).
	if regs, _ := compare(baseline, baseline, 0.15); len(regs) != 0 {
		t.Fatalf("self-compare regressed: %v", regs)
	}
	// A >15% drop on a higher-is-better gate regresses; smaller drops pass.
	degraded := parseString(t, strings.NewReplacer(
		"1.80 indexed-speedup-x", "1.40 indexed-speedup-x",
		"1.60 indexed-speedup-x", "1.30 indexed-speedup-x").Replace(sample))
	regs, _ := compare(degraded, baseline, 0.15)
	if len(regs) != 1 || !strings.Contains(regs[0], "indexed-speedup-x") {
		t.Fatalf("regressions = %v", regs)
	}
	slight := parseString(t, strings.NewReplacer("1.80 indexed-speedup-x", "1.70 indexed-speedup-x").Replace(sample))
	if regs, _ := compare(slight, baseline, 0.15); len(regs) != 0 {
		t.Fatalf("within-threshold drop flagged: %v", regs)
	}
	// scan-cmp-growth-x is recorded but ungated: rising past the threshold
	// must NOT fail the gate.
	grown := parseString(t, strings.NewReplacer("3.0 scan-cmp-growth-x", "4.0 scan-cmp-growth-x").Replace(sample))
	if regs, _ := compare(grown, baseline, 0.15); len(regs) != 0 {
		t.Fatalf("ungated metric flagged: %v", regs)
	}
	// A lower-is-better gate rising past its own threshold fails.
	moreAllocs := parseString(t, strings.NewReplacer("452 allocs/op", "510 allocs/op").Replace(sample))
	if regs, _ := compare(moreAllocs, baseline, 0.15); len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("allocs/op regression missed: %v", regs)
	}
	// A gated benchmark vanishing from the run is itself a regression.
	missing := parseString(t, strings.Split(sample, "BenchmarkLoadStableView")[0])
	regs, _ = compare(missing, baseline, 0.15)
	if len(regs) == 0 {
		t.Fatal("missing gated benchmark not flagged")
	}
}
