// Musicgraph: the music-vertical scenario the paper's evaluation centers on.
// Two overlapping music sources are deduplicated and fused into canonical
// entities, entity-centric views (the Figure 8 views) are computed on the
// analytics store, entity importance ranks the catalog, and KG embeddings
// impute missing facts.
package main

import (
	"fmt"
	"log"

	"saga/internal/core"
	"saga/internal/embed"
	"saga/internal/importance"
	"saga/internal/store/analytics"
	"saga/internal/triple"
	"saga/internal/views"
	"saga/internal/workload"
)

func main() {
	platform, err := core.Open(core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Two sources cover overlapping slices of the same artist universe:
	// cross-source linking consolidates them (src2's records carry typos).
	src1 := workload.SourceSpec{Name: "catalogA", Offset: 0, Count: 120, RichFacts: 2, Seed: 1}
	src2 := workload.SourceSpec{Name: "catalogB", Offset: 60, Count: 120, TypoRate: 0.15, RichFacts: 2, Seed: 2}
	for _, spec := range []workload.SourceSpec{src1, src2} {
		stats, err := platform.ConsumeDelta(spec.Delta())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("fused:", stats)
	}
	st := platform.Stats()
	fmt.Printf("catalog: %d canonical entities from %d source records\n\n", st.Graph.Entities, st.Links)

	// Register the entity-features view and a people view on the analytics
	// store, then materialize both over the graph replica after a checkpoint
	// (shared dependencies are computed once — the §3.2 reuse optimization).
	exec := analytics.HashExecutor{}
	catalog := views.NewCatalog()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(catalog.Register(views.Definition{
		Name: "entity-features", Engine: "analytics",
		Create: func(ctx *views.Context) error {
			store := analytics.FromGraph(ctx.Graph)
			feats := exec.Join(store.DegreeRelation(exec), store.InDegreeRelation(exec), "subj", "subj")
			ctx.SetArtifact("entity-features", feats)
			return nil
		},
	}))
	must(catalog.Register(views.Definition{
		Name: "people-view", Engine: "analytics", DependsOn: []string{"entity-features"},
		Create: func(ctx *views.Context) error {
			store := analytics.FromGraph(ctx.Graph)
			rel, err := analytics.BuildEntityView(store, analytics.EntityViewSpec{
				Name: "people", Type: "human",
				Predicates: []string{triple.PredName, "occupation"},
				Enrich:     []analytics.Enrichment{{Path: []string{"birth_place", triple.PredName}, As: "birth_city"}},
			}, exec)
			if err != nil {
				return err
			}
			ctx.SetArtifact("people-view", rel)
			return nil
		},
	}))
	if _, err := platform.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	run, err := views.NewManager(catalog).Materialize(views.NewContext(platform.GraphReplica.Snapshot()), catalog.Names()...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("views materialized: %v in %v\n\n", run.Materialized, run.Duration)

	// Importance ranking over the fused graph.
	scores := importance.Compute(platform.GraphReplica, importance.Options{})
	fmt.Println("top entities by structural importance:")
	for i, id := range importance.Ranked(scores)[:5] {
		e := platform.GraphReplica.Get(id)
		s := scores[id]
		fmt.Printf("  %d. %-24s imp=%.3f in=%d identities=%d\n",
			i+1, e.Name(), s.Importance, s.InDegree, s.Identities)
	}

	// Embeddings: train TransE on the fused graph and impute birth places.
	es := embed.EdgesFromGraph(platform.GraphReplica)
	em, err := embed.Train(es, embed.TrainOptions{Kind: embed.TransE, Dim: 24, Epochs: 15, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	db, err := embed.LoadVectorDB(em, func(id triple.EntityID) string {
		if e := platform.GraphReplica.Get(id); e != nil {
			return e.Type()
		}
		return ""
	})
	if err != nil {
		log.Fatal(err)
	}
	subject := es.Entities[0]
	suggested, err := embed.Impute(em, db, subject, "birth_place", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nimputation candidates for <%s, birth_place, ?>:\n", subject)
	for _, f := range suggested {
		name := ""
		if e := platform.GraphReplica.Get(f.Object); e != nil {
			name = e.Name()
		}
		fmt.Printf("  %-14s %-20s score=%.3f\n", f.Object, name, f.Score)
	}
}
