package layers

import (
	"sort"
	"time"

	"saga/bench/gen"
	"saga/internal/triple"
)

const sourceTrust = 0.85

func sourced(src, pred string, v triple.Value) triple.Triple {
	return triple.New("", pred, v).WithSource(src, sourceTrust)
}

func stableEntity(g gen.Entity) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(g.ID()))
	e.Add(sourced(g.Source, triple.PredType, triple.String(g.Type)))
	e.Add(sourced(g.Source, triple.PredSourceID, triple.String(g.Local)))
	e.Add(sourced(g.Source, triple.PredName, triple.String(g.Name)))
	for _, a := range g.Aliases {
		e.Add(sourced(g.Source, triple.PredAlias, triple.String(a)))
	}
	if g.BirthPlace != "" {
		e.Add(sourced(g.Source, "birth_place", triple.Ref(triple.EntityID(g.Source+":"+g.BirthPlace))))
	}
	for _, o := range g.Occupations {
		e.Add(sourced(g.Source, "occupation", triple.String(o)))
	}
	return e
}

// volatileEntity carries the identity facts next to the volatile one, as
// ingest.ComputeDelta's volatile partition does.
func volatileEntity(v gen.Volatile) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(v.Source + ":" + v.Local))
	e.Add(sourced(v.Source, "popularity", triple.Float(v.Popularity)))
	e.Add(sourced(v.Source, triple.PredType, triple.String(v.Type)))
	e.Add(sourced(v.Source, triple.PredSourceID, triple.String(v.Local)))
	return e
}

// Measure is what one replay loop did: Ops calls in Elapsed, and for
// encoders the Bytes they produced.
type Measure struct {
	Ops     int
	Elapsed time.Duration
	Bytes   int64
}

// Per is the mean time of one call in the given unit.
func (m Measure) Per(unit time.Duration) float64 {
	if m.Ops == 0 {
		return 0
	}
	return float64(m.Elapsed) / float64(m.Ops) / float64(unit)
}

// BytesPerOp is the mean output size of one call.
func (m Measure) BytesPerOp() float64 {
	if m.Ops == 0 {
		return 0
	}
	return float64(m.Bytes) / float64(m.Ops)
}

// loop calls fn(0), fn(1), ... fn(n-1), fn(0), ... until the budget is spent.
// It reads the clock once per chunk of calls and grows the chunk until one
// takes 50us, so that nanosecond-scale calls are not dominated by the clock
// and millisecond-scale calls do not overrun the budget.
func loop(budget time.Duration, n int, fn func(i int)) Measure {
	var m Measure
	if n == 0 {
		return m
	}
	start := time.Now()
	for chunk := 1; ; {
		for k := 0; k < chunk; k++ {
			fn(m.Ops % n)
			m.Ops++
		}
		elapsed := time.Since(start)
		if elapsed-m.Elapsed < 50*time.Microsecond && chunk < 1024 {
			chunk *= 2
		}
		if m.Elapsed = elapsed; elapsed >= budget {
			return m
		}
	}
}

// loopCall is loop for a call that takes no input.
func loopCall(budget time.Duration, fn func()) Measure {
	return loop(budget, 1, func(int) { fn() })
}

// Sample is a fixed set of KG entities taken from the run's graph replica,
// the input every store-side replay works on.
type Sample struct{ ents []*triple.Entity }

// Sample takes up to n entities of the graph replica, evenly spaced in id
// order.
func (pl *Platform) Sample(n int) Sample {
	var all []*triple.Entity
	pl.p.GraphReplica.RangeShared(func(e *triple.Entity) bool {
		all = append(all, e)
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if len(all) <= n {
		return Sample{ents: all}
	}
	out := make([]*triple.Entity, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return Sample{ents: out}
}

// Len is the number of entities in the sample.
func (s Sample) Len() int { return len(s.ents) }

// opEntities is how many entities the replays put into one operation, as the
// feed publisher does for a small batch.
const opEntities = 8

// groups cuts the sample into operations' worth of entities; a remainder is
// left out.
func (s Sample) groups() [][]*triple.Entity {
	var out [][]*triple.Entity
	for lo := 0; lo+opEntities <= len(s.ents); lo += opEntities {
		out = append(out, s.ents[lo:lo+opEntities])
	}
	return out
}

// ReplayEncode encodes the sample's entities to the binary record format.
func ReplayEncode(s Sample, budget time.Duration) (Measure, error) {
	var (
		err   error
		bytes int64
	)
	m := loop(budget, len(s.ents), func(i int) {
		b, e := s.ents[i].MarshalBinary()
		if e != nil {
			err = e
		}
		bytes += int64(len(b))
	})
	m.Bytes = bytes
	return m, err
}

// ReplayDecode decodes the sample's binary records.
func ReplayDecode(s Sample, budget time.Duration) (Measure, error) {
	recs := make([][]byte, len(s.ents))
	for i, e := range s.ents {
		b, err := e.MarshalBinary()
		if err != nil {
			return Measure{}, err
		}
		recs[i] = b
	}
	var err error
	m := loop(budget, len(recs), func(i int) {
		var e triple.Entity
		if uerr := e.UnmarshalBinary(recs[i]); uerr != nil {
			err = uerr
		}
	})
	return m, err
}

// ReplayGraphUpdate rewrites one fact of each sample entity in a scratch
// graph: the clone-and-swap every fused target pays.
func ReplayGraphUpdate(s Sample, budget time.Duration) Measure {
	g := scratchGraph(s)
	n := 0
	return loop(budget, len(s.ents), func(i int) {
		n++
		g.Update(s.ents[i].ID, func(e *triple.Entity) {
			if len(e.Triples) > 0 {
				e.Triples[len(e.Triples)-1].Trust = []float64{float64(n%100) / 100}
			}
		})
	})
}
