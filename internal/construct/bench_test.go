package construct

import (
	"fmt"
	"testing"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
)

// benchPerson is person u as source src describes it: a made-up name of
// three syllables and a family name of three more, picked by a
// multiplicative hash of u, so that different people rarely look alike.
func benchPerson(src string, u int) *triple.Entity {
	syl := []string{"ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "dor", "fen", "gal", "hun", "jor", "kel", "mas", "nir"}
	h := uint32(u) * 2654435761
	word := func(shift uint) string {
		return syl[h>>shift&15] + syl[h>>(shift+4)&15] + syl[h>>(shift+8)&15]
	}
	e := triple.NewEntity(triple.EntityID(fmt.Sprintf("%s:e%d", src, u)))
	add := func(p string, v triple.Value) { e.Add(triple.New("", p, v).WithSource(src, 0.85)) }
	add(triple.PredType, triple.String("human"))
	add(triple.PredSourceID, triple.String(fmt.Sprintf("e%d", u)))
	add(triple.PredName, triple.String(word(4)+" "+word(18)))
	add("occupation", triple.String([]string{"singer", "pianist", "poet"}[u%3]))
	return e
}

// BenchmarkCommitBatch commits one batch shaped like the link_quiet
// workload's — 3 overlapping sources, each adding 6 new people with a
// popularity record and updating 2 known ones — into a KG of ~1 600 people
// on the indexed linking path with one worker. Between iterations, untimed,
// the sources delete the people they added, so every iteration links against
// the same KG. B/op and allocs/op are gated in CI: they count the commit
// path's copies.
func BenchmarkCommitBatch(b *testing.B) {
	const sources, perSource, stride = 3, 650, 475
	p := NewPipeline(NewKG(), ontology.Default())
	p.Workers = 1
	p.EnableBlockIndex()
	for k := 0; k < sources; k++ { // one batch each, so that the sources link
		d := ingest.Delta{Source: fmt.Sprintf("src%d", k)}
		for u := k * stride; u < k*stride+perSource; u++ {
			d.Added = append(d.Added, benchPerson(d.Source, u))
		}
		if _, err := p.ConsumeDelta(d); err != nil {
			b.Fatal(err)
		}
	}
	batch, cleanup := make([]ingest.Delta, sources), make([]ingest.Delta, sources)
	for k := range batch {
		d := ingest.Delta{Source: fmt.Sprintf("src%d", k)}
		for u := 5000 + 6*k; u < 5006+6*k; u++ {
			e := benchPerson(d.Source, u)
			d.Added = append(d.Added, e)
			d.Volatile = append(d.Volatile, popularityRecord(e.ID, 0.5))
			cleanup[k].Deleted = append(cleanup[k].Deleted, e.ID)
		}
		for u := k * stride; u < k*stride+2; u++ {
			e := benchPerson(d.Source, u)
			e.Add(triple.New("", "occupation", triple.String("painter")).WithSource(d.Source, 0.85))
			d.Updated = append(d.Updated, e)
		}
		batch[k], cleanup[k].Source = d, d.Source
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Consume(batch); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := p.Consume(cleanup); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	if n := p.KG.Graph.Len(); n < 1500 || n > 1700 {
		b.Fatalf("KG holds %d entities, want ~1 600", n)
	}
}
