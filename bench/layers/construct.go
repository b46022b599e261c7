package layers

import (
	"fmt"
	"time"

	"saga/internal/construct"
	"saga/internal/ontology"
	"saga/internal/triple"
)

func scratchGraph(s Sample) *triple.Graph {
	g := triple.NewGraph()
	for _, e := range s.ents {
		g.Put(e.Clone())
	}
	return g
}

// ReplayBlockProbe probes a block index built over the sample with the added
// people of the given batches, one call a batch. One op is one probed
// entity.
func ReplayBlockProbe(s Sample, batches []*Batch, budget time.Duration) Measure {
	var payloads [][]*triple.Entity
	for _, b := range batches {
		if p := b.people(); len(p) > 0 {
			payloads = append(payloads, p)
		}
	}
	if len(payloads) == 0 {
		return Measure{}
	}
	ix := construct.NewBlockIndex(construct.DefaultBlocker())
	ix.Build(scratchGraph(s))
	var m Measure
	start := time.Now()
	for m.Elapsed < budget {
		for _, p := range payloads {
			ix.GeneratePairs(p, "human", construct.GenerateParams{})
			m.Ops += len(p)
		}
		m.Elapsed = time.Since(start)
	}
	return m
}

// ReplayFuse fuses an update into each sample entity of a scratch graph: the
// source's old facts are stripped and a payload with a new occupation merges,
// one graph round-trip a target. One op is one target.
func ReplayFuse(s Sample, budget time.Duration) Measure {
	g := scratchGraph(s)
	f := &construct.Fuser{Ont: ontology.Default()}
	n := 0
	return loop(budget, len(s.ents), func(i int) {
		n++
		id := s.ents[i].ID
		in := triple.NewEntity(id)
		in.Add(sourced("src00", triple.PredName, triple.String(s.ents[i].Name())))
		in.Add(sourced("src00", "occupation", triple.String(fmt.Sprintf("src00 guild role %d", n%9))))
		f.FuseBatch(g, id, []construct.FuseOp{{StripSource: "src00", Incoming: in}})
	})
}
