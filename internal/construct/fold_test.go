package construct

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

// foldPerson is a random linked payload from src: few distinct names, birth
// dates and relationship nodes, so that merges, functional conflicts and
// node merges are common.
func foldPerson(r *rand.Rand, id triple.EntityID, src string) *triple.Entity {
	e := triple.NewEntity(id)
	trust := []float64{0.6, 0.8, 0.9}[r.Intn(3)]
	add := func(p string, v triple.Value) { e.Add(triple.New(id, p, v).WithSource(src, trust)) }
	add(triple.PredType, triple.String("human"))
	add(triple.PredName, triple.String(workload.PersonName(r.Intn(3))))
	add("occupation", triple.String([]string{"singer", "pianist", "poet"}[r.Intn(3)]))
	if r.Intn(2) == 0 {
		add("birth_date", triple.Time(time.Date(1950+r.Intn(3), 1, 1, 0, 0, 0, 0, time.UTC)))
	}
	if r.Intn(2) == 0 {
		rel := fmt.Sprintf("r%d", r.Intn(4))
		e.Add(triple.NewRel(id, "educated_at", rel, "school", triple.String([]string{"MIT", "Yale"}[r.Intn(2)])).WithSource(src, trust))
		e.Add(triple.NewRel(id, "educated_at", rel, "degree", triple.String([]string{"BSc", "PhD"}[r.Intn(2)])).WithSource(src, trust))
	}
	return e
}

// foldVolatile is a random volatile record from src; the name rides along
// and must not land.
func foldVolatile(r *rand.Rand, src string) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(src + ":v"))
	pop := []float64{0.1, 0.5, 0.9, math.NaN()}[r.Intn(4)]
	e.Add(triple.New("", "popularity", triple.Float(pop)).WithSource(src, 0.9))
	e.Add(triple.New("", triple.PredName, triple.String("ignored")).WithSource(src, 0.9))
	return e
}

// foldMut is one mutation of a random commit: the target and its op.
type foldMut struct {
	id triple.EntityID
	op FuseOp
}

// TestFoldMatchesStepwise: random commits mix adds with popularity records,
// updates, a delete whose target also gets a volatile record in the same
// delta, and Zipf-duplicated volatile records on hot targets. Folding each
// target's mutations into one FuseBatch, as commitDelta does, must leave a
// KG byte-equal to the stepwise reference — FuseBatch of every target's
// stable ops, then RemoveSource per delete, then one ApplyVolatileOverwrite
// per record, skipping targets a delete removed — with equal conflicts and
// equal removals.
func TestFoldMatchesStepwise(t *testing.T) {
	f := &Fuser{Ont: ontology.Default()}
	r := rand.New(rand.NewSource(17))
	sources := []string{"s1", "s2", "s3"}
	fold, step := triple.NewGraph(), triple.NewGraph()
	minted := 0
	for commit := 0; commit < 80; commit++ {
		live := fold.IDs()
		var muts []foldMut
		var added []triple.EntityID
		for i := r.Intn(4); i >= 0; i-- {
			id, src := triple.EntityID(fmt.Sprintf("kg:E%04d", minted)), sources[r.Intn(3)]
			minted++
			added = append(added, id)
			muts = append(muts, foldMut{id, FuseOp{Incoming: foldPerson(r, id, src)}},
				foldMut{id, FuseOp{OverwriteSource: src, Incoming: foldVolatile(r, src)}})
		}
		if len(live) > 0 {
			zipf := rand.NewZipf(r, 1.2, 1, uint64(len(live)-1))
			hot := func() triple.EntityID { return live[zipf.Uint64()] }
			for i := r.Intn(3); i > 0; i-- {
				id, src := hot(), sources[r.Intn(3)]
				muts = append(muts, foldMut{id, FuseOp{StripSource: src, Incoming: foldPerson(r, id, src)}})
			}
			for i := r.Intn(6); i > 0; i-- {
				src := sources[r.Intn(3)]
				muts = append(muts, foldMut{hot(), FuseOp{OverwriteSource: src, Incoming: foldVolatile(r, src)}})
			}
		}
		// A delete, on a fresh add (then the entity goes) or a hot target,
		// whose target also gets a volatile record.
		del, src := added[r.Intn(len(added))], sources[r.Intn(3)]
		if len(live) > 0 && r.Intn(2) == 0 {
			del = live[r.Intn(len(live))]
		}
		muts = append(muts, foldMut{del, FuseOp{RemoveSource: src}},
			foldMut{del, FuseOp{OverwriteSource: src, Incoming: foldVolatile(r, src)}})

		// The fold: one FuseBatch per target, in first-mutation order.
		var order []triple.EntityID
		groups := make(map[triple.EntityID][]FuseOp)
		for _, m := range muts {
			if groups[m.id] == nil {
				order = append(order, m.id)
			}
			groups[m.id] = append(groups[m.id], m.op)
		}
		var foldConflicts []Conflict
		foldRemoved := make(map[triple.EntityID]bool)
		for _, id := range order {
			c, deleted := f.fuseBatch(fold, id, groups[id])
			foldConflicts = append(foldConflicts, c...)
			foldRemoved[id] = deleted
		}

		// The stepwise reference.
		var stepConflicts []Conflict
		for _, id := range order {
			var stable []FuseOp
			for _, op := range groups[id] {
				if op.StripSource != "" || (op.Incoming != nil && op.OverwriteSource == "") {
					stable = append(stable, op)
				}
			}
			if len(stable) > 0 {
				stepConflicts = append(stepConflicts, f.FuseBatch(step, id, stable)...)
			}
		}
		stepRemoved := make(map[triple.EntityID]bool)
		for _, m := range muts {
			if m.op.RemoveSource != "" && RemoveSource(step, m.id, m.op.RemoveSource) {
				stepRemoved[m.id] = true
			}
		}
		for _, m := range muts {
			if m.op.OverwriteSource != "" && !stepRemoved[m.id] {
				ApplyVolatileOverwrite(step, m.id, m.op.OverwriteSource, m.op.Incoming, f.Ont)
			}
		}

		if got, want := fmt.Sprint(foldConflicts), fmt.Sprint(stepConflicts); got != want {
			t.Fatalf("commit %d: conflicts differ:\nfold %s\nstep %s", commit, got, want)
		}
		for _, id := range order {
			if foldRemoved[id] != stepRemoved[id] {
				t.Fatalf("commit %d: %s removed by fold %v, by the reference %v", commit, id, foldRemoved[id], stepRemoved[id])
			}
		}
		assertGraphsEqual(t, fold, step)
	}
}

// assertGraphsEqual fails unless both graphs hold the same ids with
// byte-equal, valid records.
func assertGraphsEqual(t *testing.T, got, want *triple.Graph) {
	t.Helper()
	if g, w := fmt.Sprint(got.IDs()), fmt.Sprint(want.IDs()); g != w {
		t.Fatalf("entity ids differ:\n got %s\nwant %s", g, w)
	}
	for _, id := range want.IDs() {
		if err := got.GetShared(id).Validate(); err != nil {
			t.Fatal(err)
		}
		g, err := got.GetShared(id).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.GetShared(id).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs:\n got %v\nwant %v", id, got.GetShared(id).Triples, want.GetShared(id).Triples)
		}
	}
}

// popularityRecord is a volatile record for the source entity id.
func popularityRecord(id triple.EntityID, pop float64) *triple.Entity {
	e := triple.NewEntity(id)
	e.Add(triple.New("", "popularity", triple.Float(pop)).WithSource(id.Namespace(), 0.9))
	return e
}

// TestFusionStatsCountsOneWritePerTarget: a delta of 6 adds with
// popularity, 2 updates and 3 volatile records on 2 other targets writes 10
// KG entities besides the OBR stub one add's dangling reference mints, and
// FusionStats.Targets rises by exactly those 10: every mutation of a target
// folds into its one write.
func TestFusionStatsCountsOneWritePerTarget(t *testing.T) {
	p := NewPipeline(NewKG(), ontology.Default())
	seed := ingest.Delta{Source: "s"}
	for i := 0; i < 4; i++ {
		seed.Added = append(seed.Added, sourceArtist("s", fmt.Sprintf("a%d", i), workload.PersonName(i)))
	}
	if _, err := p.ConsumeDelta(seed); err != nil {
		t.Fatal(err)
	}
	before := p.FusionStats()
	d := ingest.Delta{Source: "s"}
	for i := 0; i < 6; i++ {
		e := sourceArtist("s", fmt.Sprintf("n%d", i), workload.PersonName(100+i))
		d.Added = append(d.Added, e)
		d.Volatile = append(d.Volatile, popularityRecord(e.ID, 0.5))
	}
	d.Added[0].Add(triple.New("", "birth_place", triple.Ref("s:nowhere")).WithSource("s", 0.9))
	for i := 0; i < 2; i++ {
		d.Updated = append(d.Updated, sourceArtist("s", fmt.Sprintf("a%d", i), workload.PersonName(i), "alias"))
	}
	d.Volatile = append(d.Volatile, popularityRecord("s:a2", 0.1), popularityRecord("s:a2", 0.2), popularityRecord("s:a3", 0.3))
	stats, err := p.ConsumeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Touched) != 11 || len(stats.Removed) != 0 || stats.NewEntities != 6 {
		t.Fatalf("touched %d, stats %v: want 10 written targets and one stub", len(stats.Touched), stats)
	}
	fs := p.FusionStats()
	if got := fs.Targets - before.Targets; got != 10 {
		t.Fatalf("FusionStats.Targets rose by %d, want 10 (one write per touched non-stub KG entity)", got)
	}
	if stats.Volatile != 9 {
		t.Fatalf("volatile overwrites = %d, want 9", stats.Volatile)
	}
}
