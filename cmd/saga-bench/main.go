// Command saga-bench regenerates every table and figure of the paper's
// evaluation as text output: Figure 8 (view computation), the §3.2 view
// reuse claim, Figure 12 (KG growth), Figure 14 (NERD), live-engine latency,
// learned-similarity recall, embedding training IO, and the construction
// ablations. Run with -only to select one experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"saga/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run only the named experiment (fig8, reuse, fig12, fig14a, fig14b, latency, simrecall, embedding, construction, indexedlinking, blocking, resolution, volatile, pruning)")
	workers := flag.Int("workers", 0, "worker count for the construction/resolution/indexed-linking ablations (0 = GOMAXPROCS)")
	flag.Parse()

	runs := []struct {
		name string
		fn   func() (fmt.Stringer, error)
	}{
		{"fig8", func() (fmt.Stringer, error) { return experiments.Fig8(experiments.Fig8Spec{}) }},
		{"reuse", func() (fmt.Stringer, error) { return experiments.ViewReuse() }},
		{"fig12", func() (fmt.Stringer, error) { return experiments.Fig12() }},
		{"fig14a", func() (fmt.Stringer, error) { return experiments.Fig14a(), nil }},
		{"fig14b", func() (fmt.Stringer, error) { return experiments.Fig14b(), nil }},
		{"latency", func() (fmt.Stringer, error) { return experiments.LiveLatency(0, 0) }},
		{"simrecall", func() (fmt.Stringer, error) { return experiments.LearnedSimilarityRecall(), nil }},
		{"embedding", func() (fmt.Stringer, error) { return experiments.EmbeddingTraining() }},
		{"construction", func() (fmt.Stringer, error) { return experiments.ConstructionPipeline(*workers) }},
		{"indexedlinking", func() (fmt.Stringer, error) { return experiments.IndexedLinking(*workers) }},
		{"blocking", func() (fmt.Stringer, error) { return experiments.BlockingAblation(), nil }},
		{"resolution", func() (fmt.Stringer, error) { return experiments.ResolutionAblation(*workers), nil }},
		{"volatile", func() (fmt.Stringer, error) { return experiments.VolatileOverwrite() }},
		{"pruning", func() (fmt.Stringer, error) { return experiments.CandidatePruning(), nil }},
	}
	ran := 0
	for _, r := range runs {
		if *only != "" && r.name != *only {
			continue
		}
		ran++
		fmt.Printf("=== %s ===\n", r.name)
		res, err := r.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "saga-bench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		out := res.String()
		fmt.Print(out)
		if !strings.HasSuffix(out, "\n") {
			fmt.Println()
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "saga-bench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
