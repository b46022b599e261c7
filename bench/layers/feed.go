package layers

import (
	"saga/bench/gen"
	"saga/internal/construct"
	"saga/internal/core"
	"saga/internal/ingest"
	"saga/internal/triple"
)

// Feed is the platform's standing ingestion feed.
type Feed struct{ f *construct.Feed }

// Feed opens the standing feed with the platform's default queue depths.
func (pl *Platform) Feed() (*Feed, error) {
	f, err := pl.p.Feed(core.FeedOptions{})
	if err != nil {
		return nil, err
	}
	return &Feed{f: f}, nil
}

// Batch is one generated batch in the platform's own types, converted ahead
// of the measured window so that the window allocates for the platform only.
type Batch struct {
	deltas   []ingest.Delta
	Entities int
}

// NewBatch converts a generated batch.
func NewBatch(b gen.Batch) *Batch {
	out := &Batch{Entities: b.Entities, deltas: make([]ingest.Delta, len(b.Deltas))}
	for i, d := range b.Deltas {
		id := ingest.Delta{Source: d.Source}
		for _, e := range d.Added {
			id.Added = append(id.Added, stableEntity(e))
		}
		for _, e := range d.Updated {
			id.Updated = append(id.Updated, stableEntity(e))
		}
		for _, v := range d.Volatile {
			id.Volatile = append(id.Volatile, volatileEntity(v))
		}
		out.deltas[i] = id
	}
	return out
}

// people returns the batch's added people, the payload block probes replay.
func (b *Batch) people() []*triple.Entity {
	var out []*triple.Entity
	for _, d := range b.deltas {
		for _, e := range d.Added {
			if e.Type() == "human" {
				out = append(out, e)
			}
		}
	}
	return out
}

// Pending is a submitted batch whose result has not been read yet.
type Pending struct {
	ch <-chan construct.BatchResult
}

// Submit hands a batch to the feed; it blocks while the commit queue is full.
func (f *Feed) Submit(b *Batch) Pending { return Pending{ch: f.f.Submit(b.deltas)} }

// Ack is a batch's terminal result: committed, logged and replayed into
// every agent when Err is nil.
type Ack struct {
	Err error
	// Comparisons is the exact count of matcher invocations the batch cost.
	Comparisons int
	stats       []construct.SourceStats
}

// Wait blocks until the batch's result arrives.
func (p Pending) Wait() Ack {
	r := <-p.ch
	a := Ack{Err: r.Err, stats: r.Stats}
	for i := range r.Stats {
		a.Comparisons += r.Stats[i].Comparisons
	}
	return a
}

// KGID returns the KG entity the batch linked a source entity to.
func (a Ack) KGID(src string) (string, bool) {
	for i := range a.stats {
		if id, ok := a.stats[i].Links[triple.EntityID(src)]; ok {
			return string(id), true
		}
	}
	return "", false
}

// Close stops the feed after its backlog has committed and published.
func (f *Feed) Close() error { return f.f.Close() }

// Lookup returns the KG entity a source entity is linked to.
func (pl *Platform) Lookup(src string) (string, bool) {
	id, ok := pl.p.KG.Lookup(triple.EntityID(src))
	return string(id), ok
}

// KGEntities counts the construction KG's entities.
func (pl *Platform) KGEntities() int { return len(pl.p.KG.Graph.IDs()) }
