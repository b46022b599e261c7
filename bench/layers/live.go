package layers

import (
	"time"

	"saga/internal/live"
	"saga/internal/triple"
)

// ReplayLiveLoad loads the sample into a scratch live store the way a serving
// refresh loads the stable view (load: one op is one whole-sample load), then
// rewrites single entities (put) and publishes a snapshot after each write
// (snapshot: the copy-on-write capture the next reader pays for).
func ReplayLiveLoad(s Sample, budget time.Duration) (load, put, snapshot Measure) {
	store := live.NewStore()
	c := &live.Constructor{Store: store}
	load = loopCall(budget/3, func() { c.LoadStableView(s.ents, nil) })
	put = loop(budget/3, len(s.ents), func(i int) { store.Put(s.ents[i], 0) })
	// The write before each snapshot is not timed but costs far more than the
	// snapshot (it clones what the last snapshot shares), so the wall clock
	// bounds the loop.
	for start := time.Now(); time.Since(start) < budget/3 && len(s.ents) > 0; {
		store.Put(s.ents[snapshot.Ops%len(s.ents)], 0)
		t := time.Now()
		store.Snapshot()
		snapshot.Elapsed += time.Since(t)
		snapshot.Ops++
	}
	return load, put, snapshot
}

// ReplayLiveRead reads entities and searches names on a snapshot of the
// run's live store.
func ReplayLiveRead(pl *Platform, ids, names []string, budget time.Duration) (get, search Measure) {
	view := pl.p.Live.Current()
	get = loop(budget/2, len(ids), func(i int) { view.GetShared(triple.EntityID(ids[i])) })
	search = loop(budget/2, len(names), func(i int) { view.SearchText(names[i], 5) })
	return get, search
}
