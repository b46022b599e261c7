package live

import (
	"fmt"
	"sort"
	"sync"

	"saga/internal/triple"
)

// Suspect is one quarantined fact: a potential error or act of vandalism
// awaiting human curation (§4.3).
type Suspect struct {
	Entity triple.EntityID
	Fact   triple.Triple
	Reason string
}

// Detector inspects an entity and flags suspect facts. Detectors encode the
// platform's quality heuristics (outliers, vandalism patterns, missing
// structure).
type Detector func(e *triple.Entity) []Suspect

// RangeDetector flags numeric facts of a predicate outside [min,max] — the
// classic wrong-by-three-orders-of-magnitude source error.
func RangeDetector(pred string, min, max float64) Detector {
	return func(e *triple.Entity) []Suspect {
		var out []Suspect
		for _, t := range e.Triples {
			if t.Predicate != pred || t.IsComposite() {
				continue
			}
			v := t.Object.Float64()
			if v < min || v > max {
				out = append(out, Suspect{Entity: e.ID, Fact: t,
					Reason: fmt.Sprintf("%s=%g outside [%g,%g]", pred, v, min, max)})
			}
		}
		return out
	}
}

// VandalismDetector flags string facts containing any of the given markers
// (community-edit vandalism patterns).
func VandalismDetector(pred string, markers ...string) Detector {
	return func(e *triple.Entity) []Suspect {
		var out []Suspect
		for _, t := range e.Triples {
			if t.Predicate != pred || t.Object.Kind() != triple.KindString {
				continue
			}
			text := normText(t.Object.Str())
			for _, m := range markers {
				if m != "" && contains(text, normText(m)) {
					out = append(out, Suspect{Entity: e.ID, Fact: t,
						Reason: fmt.Sprintf("%s contains vandalism marker %q", pred, m)})
					break
				}
			}
		}
		return out
	}
}

func contains(haystack, needle string) bool {
	return len(needle) > 0 && len(haystack) >= len(needle) && (func() bool {
		for i := 0; i+len(needle) <= len(haystack); i++ {
			if haystack[i:i+len(needle)] == needle {
				return true
			}
		}
		return false
	})()
}

// DecisionKind enumerates curator actions.
type DecisionKind uint8

// Curator decisions: block removes a fact, edit replaces its object, and
// blockEntity removes the whole entity.
const (
	DecisionBlock DecisionKind = iota
	DecisionEdit
	DecisionBlockEntity
)

// Decision is one human curation action over a quarantined fact.
type Decision struct {
	Kind     DecisionKind
	Entity   triple.EntityID
	Fact     triple.Triple
	NewValue triple.Value // for DecisionEdit
}

// CurationSource is the well-known source name curation decisions carry in
// the stable KG; stable construction consumes them like any other source.
const CurationSource = "curation"

// Queue is the human-in-the-loop curation pipeline: detectors quarantine
// facts, curators decide, and decisions are applied as a streaming hot-fix
// to the live indexes while also being exported for the stable KG (§4.3).
type Queue struct {
	mu        sync.Mutex
	detectors []Detector
	pending   []Suspect
	applied   []Decision
}

// NewQueue constructs an empty curation queue.
func NewQueue(detectors ...Detector) *Queue {
	return &Queue{detectors: detectors}
}

// Inspect runs the detectors over an entity, quarantining suspects. It
// returns the number of newly quarantined facts.
func (q *Queue) Inspect(e *triple.Entity) int {
	var found []Suspect
	for _, d := range q.detectors {
		found = append(found, d(e)...)
	}
	if len(found) == 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append(q.pending, found...)
	return len(found)
}

// Pending returns the quarantined facts awaiting decisions, oldest first.
func (q *Queue) Pending() []Suspect {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Suspect, len(q.pending))
	copy(out, q.pending)
	return out
}

// Decide applies a curator decision as a hot fix to the live store and
// records it for export to stable construction. The suspect is removed from
// the queue.
func (q *Queue) Decide(store *Store, d Decision) error {
	ent := store.Get(d.Entity)
	if ent == nil && d.Kind != DecisionBlockEntity {
		return fmt.Errorf("live: curation target %s not found", d.Entity)
	}
	switch d.Kind {
	case DecisionBlock:
		kept := ent.Triples[:0]
		for _, t := range ent.Triples {
			if t.Key() != d.Fact.Key() {
				kept = append(kept, t)
			}
		}
		ent.Triples = kept
		store.Put(ent, store.Boost(d.Entity))
	case DecisionEdit:
		for i, t := range ent.Triples {
			if t.Key() == d.Fact.Key() {
				ent.Triples[i].Object = d.NewValue
				ent.Triples[i].Sources = []string{CurationSource}
				ent.Triples[i].Trust = []float64{1}
			}
		}
		store.Put(ent, store.Boost(d.Entity))
	case DecisionBlockEntity:
		store.Delete(d.Entity)
	default:
		return fmt.Errorf("live: unknown decision kind %d", d.Kind)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	kept := q.pending[:0]
	for _, s := range q.pending {
		if !(s.Entity == d.Entity && s.Fact.Key() == d.Fact.Key()) {
			kept = append(kept, s)
		}
	}
	q.pending = kept
	q.applied = append(q.applied, d)
	return nil
}

// DrainDecisions returns and clears the applied decisions, ordered by entity
// then fact for determinism. Stable construction consumes them as the
// curation streaming source so corrections reach the stable graph too.
func (q *Queue) DrainDecisions() []Decision {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.applied
	q.applied = nil
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Fact.Key() < out[j].Fact.Key()
	})
	return out
}
