package construct

import (
	"fmt"
	"sort"

	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/truth"
)

// Fuser merges linked source payloads into the KG, taking it to a new
// consistent state (§2.3). Simple facts fuse by an outer join on the fact
// key — either updating provenance of an existing fact or adding a new one.
// Composite facts fuse by relationship-node similarity: an incoming node
// merges into an existing node when their underlying facts intersect
// sufficiently, otherwise it is added as a new node. Conflicts on functional
// predicates resolve through truth discovery, and the per-fact correctness
// probabilities land in the KG's trust metadata.
type Fuser struct {
	// Ont supplies cardinality constraints; required.
	Ont *ontology.Ontology
	// RelSimThreshold is the minimum fraction of an incoming relationship
	// node's facts that must match an existing node to merge them;
	// default 0.5.
	RelSimThreshold float64
	// Truth tunes the truth-discovery estimator.
	Truth truth.Options
}

// Conflict records a losing value removed from a functional predicate during
// fusion; conflicts feed the fact-curation queue.
type Conflict struct {
	Entity     triple.EntityID
	Slot       string
	Kept       triple.Value
	KeptBelief float64
	Dropped    []triple.Value
}

// FuseEntity merges the incoming payload into the graph entity with the same
// ID, returning any functional-predicate conflicts it resolved. The incoming
// entity must already be linked (KG-namespace subject) and object-resolved.
func (f *Fuser) FuseEntity(g *triple.Graph, incoming *triple.Entity) []Conflict {
	var conflicts []Conflict
	g.Update(incoming.ID, func(cur *triple.Entity) {
		conflicts = f.fuseInto(cur, incoming)
	})
	return conflicts
}

// FuseOp is one step of a batched fusion against a single target KG entity.
type FuseOp struct {
	// StripSource, when non-empty, drops that source's stable facts from the
	// target before Incoming merges — the update path's replace semantics
	// (the volatile partition is never touched; that is the overwrite
	// path's job).
	StripSource string
	// Incoming is the linked, object-resolved payload to merge. Nil ops only
	// strip.
	Incoming *triple.Entity
}

// FuseBatch applies a commit's fusion ops for one target KG entity under a
// single graph round-trip: the target is cloned once, every payload merges in
// op order, and functional-conflict resolution plus dedup run once over the
// combined result. Compared with one FuseEntity call per payload this
// amortizes the Graph.Update clone, the conflict scan, and the
// truth-discovery estimate (truth.Estimate sees every claim of the commit for
// a contested slot at once, instead of path-dependent pairwise eliminations)
// across all of the target's payloads. For a single op the result is
// identical to FuseEntity; for several ops it is identical unless the commit
// stacks distinct conflicting values onto a functional slot the target
// already contests (then one-at-a-time FuseEntity's answer depends on fusion
// order — intermediate resolutions drop claims before later payloads arrive,
// and the EM estimate couples contested slots — while the batched result is
// the order-independent estimate over the full claim set).
func (f *Fuser) FuseBatch(g *triple.Graph, id triple.EntityID, ops []FuseOp) []Conflict {
	if len(ops) == 0 {
		return nil
	}
	var conflicts []Conflict
	g.Update(id, func(cur *triple.Entity) {
		for _, op := range ops {
			if op.StripSource != "" {
				stripSourceStable(cur, op.StripSource, f.Ont)
			}
			if op.Incoming != nil {
				f.mergeInto(cur, op.Incoming)
			}
		}
		conflicts = f.resolveFunctionalConflicts(cur)
		cur.Dedup()
	})
	return conflicts
}

// fuseInto merges incoming into cur in place.
func (f *Fuser) fuseInto(cur, incoming *triple.Entity) []Conflict {
	f.mergeInto(cur, incoming)
	conflicts := f.resolveFunctionalConflicts(cur)
	cur.Dedup()
	return conflicts
}

// mergeInto is the join phase of fusion: incoming's simple facts outer-join
// into cur by key and its relationship nodes merge by similarity, with no
// conflict resolution or dedup — FuseBatch runs those once per target after
// every payload merged.
func (f *Fuser) mergeInto(cur, incoming *triple.Entity) {
	threshold := f.RelSimThreshold
	if threshold == 0 {
		threshold = 0.5
	}
	// Outer-join simple facts by key.
	byKey := make(map[string]int, len(cur.Triples))
	for i, t := range cur.Triples {
		if !t.IsComposite() {
			byKey[t.Key()] = i
		}
	}
	// Relationship-node merge: map incoming RelIDs onto existing node IDs
	// when the fact intersection is large enough.
	curNodes := cur.RelNodes()
	relMap := make(map[string]string) // incoming (pred,relID) key -> target relID
	for _, in := range groupRelNodes(incoming) {
		bestID, bestSim := "", 0.0
		for _, ex := range curNodes {
			if ex.Predicate != in.Predicate {
				continue
			}
			sim := relNodeSimilarity(in, ex)
			if sim > bestSim {
				bestSim, bestID = sim, ex.RelID
			}
		}
		key := in.Predicate + "\x1f" + in.RelID
		if bestSim >= threshold {
			relMap[key] = bestID
		} else {
			relMap[key] = in.RelID // keep as a new node
		}
	}
	// Apply the merge.
	compositeKey := make(map[string]int, len(cur.Triples))
	for i, t := range cur.Triples {
		if t.IsComposite() {
			compositeKey[t.Key()] = i
		}
	}
	for _, t := range incoming.Triples {
		if t.IsComposite() {
			if target, ok := relMap[t.Predicate+"\x1f"+t.RelID]; ok {
				t.RelID = target
			}
			if i, ok := compositeKey[t.Key()]; ok {
				cur.Triples[i] = cur.Triples[i].MergeProvenance(t)
				continue
			}
			compositeKey[t.Key()] = len(cur.Triples)
			cur.Triples = append(cur.Triples, t)
			continue
		}
		if i, ok := byKey[t.Key()]; ok {
			cur.Triples[i] = cur.Triples[i].MergeProvenance(t)
			continue
		}
		byKey[t.Key()] = len(cur.Triples)
		cur.Triples = append(cur.Triples, t)
	}
}

// resolveFunctionalConflicts runs truth discovery over functional-predicate
// slots carrying more than one value, keeps the winner (with its belief
// recorded as an extra trust entry), and drops the losers, reporting them for
// curation.
func (f *Fuser) resolveFunctionalConflicts(cur *triple.Entity) []Conflict {
	if f.Ont == nil {
		return nil
	}
	type slotInfo struct {
		indices []int
	}
	slots := make(map[string]*slotInfo)
	for i, t := range cur.Triples {
		if t.IsComposite() {
			continue
		}
		p, ok := f.Ont.Predicate(t.Predicate)
		if !ok || p.Card != ontology.Functional {
			continue
		}
		key := t.FactKey()
		si := slots[key]
		if si == nil {
			si = &slotInfo{}
			slots[key] = si
		}
		si.indices = append(si.indices, i)
	}
	var claims []truth.Claim
	contested := make([]string, 0)
	for key, si := range slots {
		if len(si.indices) < 2 {
			continue
		}
		contested = append(contested, key)
		for _, i := range si.indices {
			t := cur.Triples[i]
			for _, src := range t.Sources {
				claims = append(claims, truth.Claim{Slot: key, Source: src, Value: t.Object})
			}
		}
	}
	if len(contested) == 0 {
		return nil
	}
	sort.Strings(contested)
	res := truth.Estimate(claims, f.Truth)
	var conflicts []Conflict
	drop := make(map[int]bool)
	for _, key := range contested {
		winner, belief := res.Best(key)
		c := Conflict{Entity: cur.ID, Slot: key, Kept: winner, KeptBelief: belief}
		for _, i := range slots[key].indices {
			if !cur.Triples[i].Object.Equal(winner) {
				c.Dropped = append(c.Dropped, cur.Triples[i].Object)
				drop[i] = true
			}
		}
		sort.Slice(c.Dropped, func(a, b int) bool { return c.Dropped[a].Compare(c.Dropped[b]) < 0 })
		conflicts = append(conflicts, c)
	}
	if len(drop) > 0 {
		kept := cur.Triples[:0]
		for i, t := range cur.Triples {
			if !drop[i] {
				kept = append(kept, t)
			}
		}
		cur.Triples = kept
	}
	return conflicts
}

// groupRelNodes groups an entity's composite facts into nodes (in input
// order, no sorting — fusion preserves incoming node identity).
func groupRelNodes(e *triple.Entity) []triple.RelNode {
	return e.RelNodes()
}

// relNodeSimilarity is the fraction of the incoming node's facts whose
// (relationship predicate, object) pair also appears in the existing node.
func relNodeSimilarity(in, ex triple.RelNode) float64 {
	if len(in.Facts) == 0 {
		return 0
	}
	match := 0
	for _, f := range in.Facts {
		for _, g := range ex.Facts {
			if f.RelPred == g.RelPred && f.Object.Equal(g.Object) {
				match++
				break
			}
		}
	}
	return float64(match) / float64(len(in.Facts))
}

// stripSourceStable drops the source's non-volatile facts from the entity in
// place, keeping its volatile partition intact. It is the in-place core of
// the update path's replace-then-refuse semantics.
func stripSourceStable(e *triple.Entity, source string, ont *ontology.Ontology) {
	kept := e.Triples[:0]
	for _, t := range e.Triples {
		if !ont.IsVolatile(t.Predicate) && t.HasSource(source) {
			out, remains := t.DropSource(source)
			if !remains {
				continue
			}
			t = out
		}
		kept = append(kept, t)
	}
	e.Triples = kept
}

// RemoveSource drops all facts attributed to the given source from the
// entity, deleting the entity when no attributed facts remain. This is the
// non-destructive deletion path: facts from other sources survive.
func RemoveSource(g *triple.Graph, id triple.EntityID, source string) (entityDeleted bool) {
	empty := false
	g.Update(id, func(e *triple.Entity) {
		kept := e.Triples[:0]
		for _, t := range e.Triples {
			out, remains := t.DropSource(source)
			if remains {
				kept = append(kept, out)
			}
		}
		e.Triples = kept
		empty = len(e.Triples) == 0
	})
	if empty {
		g.Delete(id)
		return true
	}
	return false
}

// ApplyVolatileOverwrite implements the optimized fusion path for volatile
// predicates (§2.4): the source's volatile partition of the KG entity is
// overwritten wholesale with the new payload — existing volatile facts from
// this source are removed, incoming ones inserted — with no join against the
// stable facts.
func ApplyVolatileOverwrite(g *triple.Graph, kgID triple.EntityID, source string, volatile *triple.Entity, ont *ontology.Ontology) {
	g.Update(kgID, func(e *triple.Entity) {
		kept := e.Triples[:0]
		for _, t := range e.Triples {
			if ont.IsVolatile(t.Predicate) && t.HasSource(source) {
				out, remains := t.DropSource(source)
				if !remains {
					continue
				}
				t = out
			}
			kept = append(kept, t)
		}
		e.Triples = kept
		for _, t := range volatile.Triples {
			if !ont.IsVolatile(t.Predicate) {
				continue // identity facts riding along in the volatile dump
			}
			t.Subject = kgID
			e.Triples = append(e.Triples, t)
		}
		e.Dedup()
	})
}

// slotString renders a conflict slot for logs.
func (c Conflict) String() string {
	return fmt.Sprintf("%s kept=%s belief=%.2f dropped=%d", c.Slot, c.Kept.Text(), c.KeptBelief, len(c.Dropped))
}
