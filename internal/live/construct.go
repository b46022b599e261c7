package live

import (
	"fmt"
	"sort"
	"sync"

	"saga/internal/triple"
)

// Event is one streaming source record (§4.1): a uniquely identifiable live
// entity (a game, a stock quote, a flight) carrying literal facts plus text
// mentions of stable entities to resolve. Live sources do not need the full
// linking/fusion pipeline — games, tickers, and flights are uniquely
// identifiable across sources — but their references to stable entities are
// ambiguous and go through entity resolution.
type Event struct {
	// Source names the streaming provider.
	Source string
	// Type is the ontology type of the live entity.
	Type string
	// ID is the provider's unique identifier for the entity.
	ID string
	// Facts carries literal facts (scores, prices, statuses).
	Facts map[string]triple.Value
	// Mentions carries reference predicates as text mentions of stable
	// entities, each with an optional expected type for resolution.
	Mentions map[string]Mention
	// Deleted marks a retraction of the live entity.
	Deleted bool
}

// Mention is a text reference to a stable entity.
type Mention struct {
	Text string
	// TypeHint is the expected entity type ("sports_team", "city"), used by
	// the resolver to improve precision.
	TypeHint string
}

// EntityResolver resolves a text mention (with a type hint) to a stable KG
// entity. The NERD service implements this in production (§5.2); tests use
// alias resolvers.
type EntityResolver interface {
	Resolve(mention, typeHint string) (triple.EntityID, float64, bool)
}

// Constructor performs live graph construction: it consumes streaming events,
// resolves their stable-entity mentions, and maintains the live store. The
// result is a KG where applications query streaming data (a sports score)
// while using stable knowledge to reason about entity references (§4.1).
type Constructor struct {
	// Store is the live index maintained by the constructor.
	Store *Store
	// Resolver resolves mentions to stable entities; nil leaves mentions as
	// string literals.
	Resolver EntityResolver
	// MinConfidence rejects resolutions below this confidence; default 0.5.
	MinConfidence float64

	// stableMu serializes LoadStableView; stable holds the IDs of the last
	// stable view loaded, so the next load deletes the ones it no longer has.
	stableMu sync.Mutex
	stable   map[triple.EntityID]struct{}
}

// LiveID returns the live KG identifier of an event entity.
func LiveID(source, id string) triple.EntityID {
	return triple.EntityID("live:" + source + ":" + id)
}

// Consume applies one streaming event to the live store, returning the live
// entity ID. Resolved mentions become reference facts to stable entities;
// unresolved mentions are kept as string literals so no data is dropped.
func (c *Constructor) Consume(ev Event) (triple.EntityID, error) {
	if ev.Source == "" || ev.ID == "" {
		return "", fmt.Errorf("live: event missing source or id")
	}
	id := LiveID(ev.Source, ev.ID)
	if ev.Deleted {
		c.Store.Delete(id)
		return id, nil
	}
	minConf := c.MinConfidence
	if minConf == 0 {
		minConf = 0.5
	}
	e := triple.NewEntity(id)
	add := func(pred string, v triple.Value) {
		e.Add(triple.New(id, pred, v).WithSource(ev.Source, 0.9))
	}
	if ev.Type != "" {
		add(triple.PredType, triple.String(ev.Type))
	}
	add(triple.PredSourceID, triple.String(ev.ID))
	// Deterministic fact order for stable output.
	preds := make([]string, 0, len(ev.Facts))
	for p := range ev.Facts {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		add(p, ev.Facts[p])
	}
	mpreds := make([]string, 0, len(ev.Mentions))
	for p := range ev.Mentions {
		mpreds = append(mpreds, p)
	}
	sort.Strings(mpreds)
	for _, p := range mpreds {
		m := ev.Mentions[p]
		if c.Resolver != nil {
			if stable, conf, ok := c.Resolver.Resolve(m.Text, m.TypeHint); ok && conf >= minConf {
				add(p, triple.Ref(stable))
				continue
			}
		}
		add(p, triple.String(m.Text))
	}
	c.Store.Put(e, 0)
	return id, nil
}

// LoadStableView loads a view of the stable graph into the live store: the
// live KG is the union of this view with the streaming sources (§4). boosts
// carries entity importance for ranking (nil means no boosts). The view
// replaces the previous one: a stable entity the last load put and this one
// lacks is deleted. Streaming entities are never part of a stable view, so
// a load leaves them alone.
func (c *Constructor) LoadStableView(entities []*triple.Entity, boosts map[triple.EntityID]float64) {
	c.stableMu.Lock()
	defer c.stableMu.Unlock()
	next := make(map[triple.EntityID]struct{}, len(entities))
	for _, e := range entities {
		c.Store.Put(e, boosts[e.ID])
		next[e.ID] = struct{}{}
	}
	for id := range c.stable {
		if _, ok := next[id]; !ok {
			c.Store.Delete(id)
		}
	}
	c.stable = next
}
