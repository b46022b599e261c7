package triple

import (
	"fmt"
	"slices"
	"sort"
)

// Entity is an entity-centric payload: the set of extended triples sharing
// one subject. It is the unit of exchange between ingestion, construction,
// and the storage engines. The zero Entity is empty and ready to use.
type Entity struct {
	ID      EntityID `json:"id"`
	Triples []Triple `json:"triples"`
}

// NewEntity constructs an empty entity payload.
func NewEntity(id EntityID) *Entity { return &Entity{ID: id} }

// Clone returns a deep copy of the entity. Triple metadata slices are copied
// so mutations of the clone never alias the original.
func (e *Entity) Clone() *Entity { return e.cloneCap(0) }

// cloneCap is Clone with room for extra triples appended without a
// reallocation.
func (e *Entity) cloneCap(extra int) *Entity {
	out := &Entity{ID: e.ID, Triples: make([]Triple, len(e.Triples), len(e.Triples)+extra)}
	for i, t := range e.Triples {
		t.Sources = append([]string(nil), t.Sources...)
		t.Trust = append([]float64(nil), t.Trust...)
		out.Triples[i] = t
	}
	return out
}

// Add appends facts to the payload, rewriting their subject to the entity ID.
func (e *Entity) Add(ts ...Triple) {
	for _, t := range ts {
		t.Subject = e.ID
		e.Triples = append(e.Triples, t)
	}
}

// AddFact appends a simple fact.
func (e *Entity) AddFact(predicate string, object Value) {
	e.Triples = append(e.Triples, New(e.ID, predicate, object))
}

// AddRelFact appends one row of a composite relationship node.
func (e *Entity) AddRelFact(predicate, relID, relPred string, object Value) {
	e.Triples = append(e.Triples, NewRel(e.ID, predicate, relID, relPred, object))
}

// Get returns the objects of all simple facts with the given predicate.
func (e *Entity) Get(predicate string) []Value {
	var out []Value
	for _, t := range e.Triples {
		if t.Predicate == predicate && !t.IsComposite() {
			out = append(out, t.Object)
		}
	}
	return out
}

// First returns the object of the first simple fact with the given predicate,
// or Null when the entity has no such fact.
func (e *Entity) First(predicate string) Value {
	for _, t := range e.Triples {
		if t.Predicate == predicate && !t.IsComposite() {
			return t.Object
		}
	}
	return Null
}

// Type returns the entity's primary ontology type, or "" when untyped.
func (e *Entity) Type() string { return e.First(PredType).Text() }

// Types returns all ontology types asserted for the entity.
func (e *Entity) Types() []string {
	vals := e.Get(PredType)
	out := make([]string, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.Text())
	}
	return out
}

// Name returns the entity's primary display name, or "" when unnamed.
func (e *Entity) Name() string { return e.First(PredName).Text() }

// Aliases returns the entity's name plus all alias facts, de-duplicated,
// preserving first-seen order. It is the candidate-retrieval vocabulary for
// the entity.
func (e *Entity) Aliases() []string {
	seen := make(map[string]bool, 4)
	var out []string
	push := func(s string) {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	push(e.Name())
	for _, v := range e.Get(PredAlias) {
		push(v.Text())
	}
	return out
}

// RelNode is one composite relationship node: the rows sharing a RelID under
// one predicate (for example, one "educated_at" event with school, degree and
// year attributes).
type RelNode struct {
	Predicate string
	RelID     string
	Facts     []Triple // each with RelPred set
}

// Attr returns the object of the node attribute with the given relationship
// predicate, or Null.
func (n RelNode) Attr(relPred string) Value {
	for _, t := range n.Facts {
		if t.RelPred == relPred {
			return t.Object
		}
	}
	return Null
}

// RelNodes groups the entity's composite facts into relationship nodes. Nodes
// are returned ordered by predicate then RelID for determinism.
func (e *Entity) RelNodes() []RelNode {
	type key struct{ pred, rel string }
	idx := make(map[key]int)
	var nodes []RelNode
	for _, t := range e.Triples {
		if !t.IsComposite() {
			continue
		}
		k := key{t.Predicate, t.RelID}
		i, ok := idx[k]
		if !ok {
			i = len(nodes)
			idx[k] = i
			nodes = append(nodes, RelNode{Predicate: t.Predicate, RelID: t.RelID})
		}
		nodes[i].Facts = append(nodes[i].Facts, t)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Predicate != nodes[j].Predicate {
			return nodes[i].Predicate < nodes[j].Predicate
		}
		return nodes[i].RelID < nodes[j].RelID
	})
	return nodes
}

// Predicates returns the distinct predicates present on the entity, sorted.
func (e *Entity) Predicates() []string {
	seen := make(map[string]bool, len(e.Triples))
	for _, t := range e.Triples {
		seen[t.Predicate] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// References returns the IDs of all entities this entity points to through
// reference-valued objects (simple or composite facts).
func (e *Entity) References() []EntityID {
	seen := make(map[EntityID]bool)
	var out []EntityID
	for _, t := range e.Triples {
		if t.Object.IsRef() {
			if id := t.Object.Ref(); !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// SourceSet returns the distinct sources contributing facts to the entity.
// Its cardinality is the "number of identities" importance signal (§3.3).
func (e *Entity) SourceSet() []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range e.Triples {
		for _, s := range t.Sources {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Dedup merges triples stating the same fact (equal Key) by unioning their
// provenance, and sorts the payload deterministically. It sorts by
// CompareTriples, which agrees with Key, so equal facts end up adjacent; the
// sort is stable, so each run merges into its first-seen member in input
// order.
func (e *Entity) Dedup() {
	if len(e.Triples) < 2 {
		return
	}
	slices.SortStableFunc(e.Triples, CompareTriples)
	out := e.Triples[:1]
	for _, t := range e.Triples[1:] {
		if last := &out[len(out)-1]; CompareTriples(*last, t) == 0 {
			*last = last.MergeProvenance(t)
			continue
		}
		out = append(out, t)
	}
	e.Triples = out
}

// Rewrite rewrites the subject of every triple (and the entity ID) to the
// given canonical ID, and rewrites reference objects using the translation
// map. It implements the assignment of KG identifiers after subject linking
// and object resolution.
func (e *Entity) Rewrite(id EntityID, refs map[EntityID]EntityID) {
	e.ID = id
	for i := range e.Triples {
		e.Triples[i].Subject = id
		if e.Triples[i].Object.IsRef() {
			if target, ok := refs[e.Triples[i].Object.Ref()]; ok {
				e.Triples[i].Object = Ref(target)
			}
		}
	}
}

// Validate checks structural invariants of the payload: a non-empty ID, every
// triple's subject matching the entity ID, non-empty predicates, and
// composite rows carrying both RelID and RelPred.
func (e *Entity) Validate() error {
	if e.ID == "" {
		return fmt.Errorf("triple: entity has empty id")
	}
	for i, t := range e.Triples {
		switch {
		case t.Subject != e.ID:
			return fmt.Errorf("triple: entity %s triple %d has foreign subject %s", e.ID, i, t.Subject)
		case t.Predicate == "":
			return fmt.Errorf("triple: entity %s triple %d has empty predicate", e.ID, i)
		case (t.RelID == "") != (t.RelPred == ""):
			return fmt.Errorf("triple: entity %s triple %d has partial relationship fields", e.ID, i)
		case len(t.Trust) > len(t.Sources):
			return fmt.Errorf("triple: entity %s triple %d has %d trust scores for %d sources", e.ID, i, len(t.Trust), len(t.Sources))
		}
	}
	return nil
}

// Fingerprint returns a content hash of the payload that is independent of
// triple order and provenance metadata. Delta computation uses fingerprints
// to detect modified entities between source snapshots.
func (e *Entity) Fingerprint() uint64 {
	keys := make([]string, 0, len(e.Triples))
	for _, t := range e.Triples {
		keys = append(keys, t.Key())
	}
	sort.Strings(keys)
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var h uint64 = offset64
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= prime64
		}
		h ^= 0x1e
		h *= prime64
	}
	return h
}
