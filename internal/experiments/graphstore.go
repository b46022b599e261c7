package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"saga/internal/triple"
	"saga/internal/workload"
)

// GraphStoreResult is the copy-on-write graph ablation, measuring the two
// serving-path claims of the store rework:
//
//  1. Snapshot() is O(1), not O(|KG|): its latency stays roughly flat as
//     the KG grows 5x, while the pre-COW deep copy (rebuilt here as the
//     comparator) grows linearly. View and NERD refreshes snapshot per run,
//     so this is the cost that used to scale with the graph and stall the
//     commit loop.
//  2. Clone-free shared reads beat clone-per-read under concurrent ingestion:
//     GetShared throughput vs the Get baseline while a writer keeps
//     committing — the serving-replica read path.
//
// Correctness bits — byte-identical content across deep copies and
// snapshots, and snapshots staying frozen while the live graph advances —
// are deterministic and asserted by tests and the CI benchmark.
type GraphStoreResult struct {
	BaseEntities  int
	GrownEntities int

	// Snapshot latency at base and grown size, vs the deep-copy comparator.
	SnapshotSmallUS, SnapshotLargeUS float64
	DeepCopySmallUS, DeepCopyLargeUS float64
	SnapshotGrowth, DeepCopyGrowth   float64
	// SnapshotFlat: snapshot latency grew far slower than the deep copy (and
	// stayed near-flat in absolute terms) over the 5x KG growth.
	SnapshotFlat bool

	// Read throughput under a concurrent writer, clone-per-read vs shared.
	CloneReadsPerSec, SharedReadsPerSec float64
	SharedReadSpeedup                   float64

	// SnapshotFrozen: a snapshot taken before a burst of writes stayed
	// byte-identical while the live graph advanced past it.
	SnapshotFrozen bool
	// Identical: the live, deep-copied, and snapshotted graphs hold
	// byte-identical triples.
	Identical bool
}

// String renders the ablation.
func (r GraphStoreResult) String() string {
	return fmt.Sprintf("Graph-store ablation: snapshot %0.1fus@%d -> %0.1fus@%d entities (%.2fx) vs deep copy %0.0fus -> %0.0fus (%.1fx), flat=%v; "+
		"reads under ingestion: clone %.0f/s vs shared %.0f/s (%.2fx); frozen=%v identical=%v\n",
		r.SnapshotSmallUS, r.BaseEntities, r.SnapshotLargeUS, r.GrownEntities, r.SnapshotGrowth,
		r.DeepCopySmallUS, r.DeepCopyLargeUS, r.DeepCopyGrowth, r.SnapshotFlat,
		r.CloneReadsPerSec, r.SharedReadsPerSec, r.SharedReadSpeedup,
		r.SnapshotFrozen, r.Identical)
}

// graphStoreID names the u-th ablation entity.
func graphStoreID(u int) triple.EntityID {
	return triple.EntityID(fmt.Sprintf("kg:G%06d", u))
}

// fillGraphStore puts entities [from, to) with a serving-shaped payload:
// type, name, alias, and a handful of sourced facts.
func fillGraphStore(g *triple.Graph, from, to int) {
	for u := from; u < to; u++ {
		id := graphStoreID(u)
		e := triple.NewEntity(id)
		add := func(p string, v triple.Value, src string) {
			e.Add(triple.New(id, p, v).WithSource(src, 0.9))
		}
		add(triple.PredType, triple.String("human"), "s0")
		add(triple.PredName, triple.String(workload.PersonName(u%500)), "s0")
		add(triple.PredAlias, triple.String(fmt.Sprintf("alias-%d", u)), "s1")
		for f := 0; f < 6; f++ {
			add("occupation", triple.String(fmt.Sprintf("role %d-%d", u%7, f)), fmt.Sprintf("s%d", f%4))
		}
		g.Put(e)
	}
}

// deepCopyGraph is the pre-COW Snapshot semantics rebuilt as the ablation
// comparator: a fresh graph receiving a clone of every entity, O(|KG|).
func deepCopyGraph(g *triple.Graph) *triple.Graph {
	out := triple.NewGraph()
	g.RangeShared(func(e *triple.Entity) bool {
		out.Put(e) // Put clones internally
		return true
	})
	return out
}

// snapshotUS times iters snapshots and returns the mean latency in µs.
func snapshotUS(g *triple.Graph, iters int) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		s := g.Snapshot()
		_ = s
	}
	return float64(time.Since(start).Microseconds()) / float64(iters)
}

// deepCopyUS times iters deep copies and returns the mean latency in µs.
func deepCopyUS(g *triple.Graph, iters int) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		_ = deepCopyGraph(g)
	}
	return float64(time.Since(start).Microseconds()) / float64(iters)
}

// readsPerSec drives n point reads against the graph while one writer keeps
// updating entities (the continuous-ingestion stand-in), returning the read
// throughput. shared selects GetShared over the cloning Get. A GC barrier
// precedes the timed section so one session's allocation debt (clone reads
// produce plenty) is not billed to the next.
func readsPerSec(g *triple.Graph, entities, n int, shared bool) float64 {
	runtime.GC()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var round int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			round++
			id := graphStoreID(int(round) % entities)
			g.Update(id, func(e *triple.Entity) {
				// Overwrite the volatile fact rather than accumulating values,
				// so payload size stays fixed during the measurement.
				kept := e.Triples[:0]
				for _, t := range e.Triples {
					if t.Predicate != "popularity" {
						kept = append(kept, t)
					}
				}
				e.Triples = kept
				e.Add(triple.New(id, "popularity", triple.Float(float64(round))).WithSource("w", 0.8))
			})
		}
	}()
	var acc int64
	start := time.Now()
	for i := 0; i < n; i++ {
		id := graphStoreID((i * 31) % entities)
		var e *triple.Entity
		if shared {
			e = g.GetShared(id)
		} else {
			e = g.Get(id)
		}
		if e != nil {
			acc += int64(len(e.Triples))
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	_ = acc
	return float64(n) / elapsed.Seconds()
}

// graphStoreConfig sizes one ablation run.
type graphStoreConfig struct {
	base        int // base KG entities; the grown KG is 5x
	snapIters   int // snapshots per timing block
	copyIters   int // deep copies per timing block
	reads       int // clone reads per throughput session
	sharedReads int // shared reads per throughput session
	reps        int // best-of repetitions per timing
}

// GraphStore runs the COW graph ablation at benchmark size; every
// timing is the best-of-reps to damp scheduler noise (the correctness bits
// are deterministic). The shape test runs graphStoreRun with a slim config so
// the race job stays fast.
func GraphStore() (GraphStoreResult, error) {
	return graphStoreRun(graphStoreConfig{
		base: 400, snapIters: 400, copyIters: 4,
		reads: 60000, sharedReads: 200000, reps: 3,
	})
}

func graphStoreRun(cfg graphStoreConfig) (GraphStoreResult, error) {
	base := cfg.base
	grown := 5 * base
	snapIters, copyIters := cfg.snapIters, cfg.copyIters
	reads, sharedReads, reps := cfg.reads, cfg.sharedReads, cfg.reps
	res := GraphStoreResult{BaseEntities: base, GrownEntities: grown}

	live := triple.NewGraph()
	fillGraphStore(live, 0, base)

	// Correctness: identical content across copies and snapshots.
	want := live.Triples()
	res.Identical = reflect.DeepEqual(want, deepCopyGraph(live).Triples()) &&
		reflect.DeepEqual(want, live.Snapshot().Triples())

	// Frozen-snapshot check: write past the snapshot, it must not move.
	snap := live.Snapshot()
	frozenBefore := snap.Triples()
	fillGraphStore(live, base, base+50)
	for u := 0; u < 20; u++ {
		live.Delete(graphStoreID(u))
	}
	res.SnapshotFrozen = reflect.DeepEqual(frozenBefore, snap.Triples()) &&
		snap.Len() == base && live.Len() == base+50-20
	// Restore the live graph to exactly the base content.
	for u := base; u < base+50; u++ {
		live.Delete(graphStoreID(u))
	}
	fillGraphStore(live, 0, 20)

	minF := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}
	for rep := 0; rep < reps; rep++ {
		res.SnapshotSmallUS = minF(res.SnapshotSmallUS, snapshotUS(live, snapIters))
		res.DeepCopySmallUS = minF(res.DeepCopySmallUS, deepCopyUS(live, copyIters))
	}

	fillGraphStore(live, base, grown)
	for rep := 0; rep < reps; rep++ {
		res.SnapshotLargeUS = minF(res.SnapshotLargeUS, snapshotUS(live, snapIters))
		res.DeepCopyLargeUS = minF(res.DeepCopyLargeUS, deepCopyUS(live, copyIters))
	}
	res.SnapshotGrowth = res.SnapshotLargeUS / res.SnapshotSmallUS
	res.DeepCopyGrowth = res.DeepCopyLargeUS / res.DeepCopySmallUS
	// Flat means: grew far slower than the O(|KG|) comparator and stayed in
	// the same ballpark in absolute terms over a 5x KG growth.
	res.SnapshotFlat = res.SnapshotGrowth < 3.0 && res.SnapshotGrowth*1.5 < res.DeepCopyGrowth

	for rep := 0; rep < reps; rep++ {
		clone := readsPerSec(live, grown, reads, false)
		shared := readsPerSec(live, grown, sharedReads, true)
		if clone > res.CloneReadsPerSec {
			res.CloneReadsPerSec = clone
		}
		if shared > res.SharedReadsPerSec {
			res.SharedReadsPerSec = shared
		}
	}
	res.SharedReadSpeedup = res.SharedReadsPerSec / res.CloneReadsPerSec
	return res, nil
}
