package layers

import (
	"time"

	"saga/internal/live/kgq"
)

// ReplayCompile parses and plans the query texts: parse alone, plan of the
// parsed query (expansion, pushdown, copy), and the plan-cache hit.
func ReplayCompile(pl *Platform, texts []string, budget time.Duration) (parse, plan, cached Measure, err error) {
	eng := kgq.NewEngine(pl.p.Live)
	queries := make([]kgq.Query, len(texts))
	for i, t := range texts {
		if queries[i], err = kgq.Parse(t); err != nil {
			return
		}
	}
	parse = loop(budget/3, len(texts), func(i int) {
		if _, perr := kgq.Parse(texts[i]); perr != nil {
			err = perr
		}
	})
	plan = loop(budget/3, len(queries), func(i int) {
		if _, perr := eng.Plan(queries[i]); perr != nil {
			err = perr
		}
	})
	hot := texts[:min(len(texts), 256)] // fits the 512-plan cache
	for _, t := range hot {
		if _, err = eng.PlanText(t); err != nil {
			return
		}
	}
	cached = loop(budget/3, len(hot), func(i int) {
		if _, perr := eng.PlanText(hot[i]); perr != nil {
			err = perr
		}
	})
	return
}

// ReplayExecute runs the query texts' plans on a snapshot of the run's live
// store: miss is the first execution on an engine that has never seen the
// plan (a new engine each pass), hit the result-cache path.
func ReplayExecute(pl *Platform, texts []string, budget time.Duration) (miss, hit Measure, err error) {
	view := pl.p.Live.Current()
	texts = texts[:min(len(texts), 512)] // fits the 1024-result cache
	planner := kgq.NewEngine(pl.p.Live)
	plans := make([]*kgq.Plan, len(texts))
	for i, t := range texts {
		if plans[i], err = planner.PlanText(t); err != nil {
			return
		}
	}
	var eng *kgq.Engine
	for miss.Elapsed < budget/2 && len(plans) > 0 {
		eng = kgq.NewEngine(pl.p.Live)
		t := time.Now()
		for _, p := range plans {
			if _, err = eng.ExecuteOn(p, view); err != nil {
				return
			}
		}
		miss.Elapsed += time.Since(t)
		miss.Ops += len(plans)
	}
	hit = loop(budget/2, len(plans), func(i int) {
		if _, xerr := eng.ExecuteOn(plans[i], view); xerr != nil {
			err = xerr
		}
	})
	return
}
