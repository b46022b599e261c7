package construct

import (
	"fmt"
	"slices"
	"strings"

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
	return f.FuseBatch(g, incoming.ID, []FuseOp{{Incoming: incoming}})
}

// FuseOp is one mutation of a batched fusion against a single target KG
// entity: a stable op (StripSource and/or a merging Incoming), a removal, or
// a volatile overwrite.
type FuseOp struct {
	// StripSource, when non-empty, drops that source's stable facts before
	// Incoming merges: the update path's replace semantics.
	StripSource string
	// Incoming is the linked, object-resolved payload to merge, or with
	// OverwriteSource the volatile payload.
	Incoming *triple.Entity
	// RemoveSource, when non-empty, drops every fact of that source, stable
	// and volatile: the deletion path, non-destructive to other sources.
	RemoveSource string
	// OverwriteSource, when non-empty, replaces that source's volatile
	// partition wholesale with Incoming's volatile facts, with no join
	// against the stable facts (§2.4).
	OverwriteSource string
}

// FuseBatch applies every mutation a commit makes to one target KG entity as
// one graph write: the target is copied once, sized for what the ops append,
// and the ops apply in this order, whatever their order in ops:
//
//  1. the stable ops, in op order;
//  2. if there were any, one dedup, then functional-conflict resolution;
//  3. the removals — a target they leave empty is deleted, and its volatile
//     overwrites are skipped;
//  4. the volatile overwrites, in op order, then one dedup.
//
// The result equals that of the stable ops' FuseBatch, RemoveSource and
// ApplyVolatileOverwrite as separate writes in that order. truth.Estimate
// sees every claim of the commit for a contested slot at once, so several
// merge ops equal one-at-a-time FuseEntity calls unless they stack
// conflicting values onto a slot the target already contests: then
// FuseEntity's answer depends on fusion order, and the batch's does not.
func (f *Fuser) FuseBatch(g *triple.Graph, id triple.EntityID, ops []FuseOp) []Conflict {
	conflicts, _ := f.fuseBatch(g, id, ops)
	return conflicts
}

// fuseBatch is FuseBatch, also reporting whether a removal deleted the
// target.
func (f *Fuser) fuseBatch(g *triple.Graph, id triple.EntityID, ops []FuseOp) (conflicts []Conflict, deleted bool) {
	if len(ops) == 0 {
		return nil, false
	}
	extra := 0 // triples the ops append
	for _, op := range ops {
		switch {
		case op.OverwriteSource != "":
			for _, t := range op.Incoming.Triples {
				if f.Ont.IsVolatile(t.Predicate) {
					extra++
				}
			}
		case op.Incoming != nil:
			extra += len(op.Incoming.Triples)
		}
	}
	g.Edit(id, extra, func(cur *triple.Entity) bool {
		stable, overwrites := false, false
		for _, op := range ops {
			if op.OverwriteSource != "" {
				overwrites = true
				continue
			}
			if op.StripSource != "" {
				dropSource(cur, op.StripSource, func(pred string) bool { return !f.Ont.IsVolatile(pred) })
			}
			if op.Incoming != nil {
				f.mergeInto(cur, op.Incoming)
			}
			stable = stable || op.StripSource != "" || op.Incoming != nil
		}
		if stable {
			cur.Dedup()
			conflicts = f.resolveFunctionalConflicts(cur)
		}
		for _, op := range ops {
			if op.RemoveSource != "" {
				dropSource(cur, op.RemoveSource, nil)
				deleted = len(cur.Triples) == 0
			}
		}
		if deleted || !overwrites {
			return !deleted
		}
		for _, op := range ops {
			if op.OverwriteSource == "" {
				continue
			}
			dropSource(cur, op.OverwriteSource, f.Ont.IsVolatile)
			for _, t := range op.Incoming.Triples {
				if f.Ont.IsVolatile(t.Predicate) { // identity facts ride along in the volatile dump
					t.Subject = id
					cur.Triples = append(cur.Triples, t)
				}
			}
		}
		cur.Dedup()
		return true
	})
	return conflicts, deleted
}

// mergeInto is the join phase of fusion: incoming's relationship nodes merge
// into cur's by similarity — a node whose facts intersect an existing node's
// enough takes that node's RelID — and every incoming fact is appended. The
// outer join of equal facts happens in the Dedup that FuseBatch runs once
// per target after every payload merged, with conflict resolution after it.
func (f *Fuser) mergeInto(cur, incoming *triple.Entity) {
	threshold := f.RelSimThreshold
	if threshold == 0 {
		threshold = 0.5
	}
	type nodeKey struct{ pred, relID string }
	var relMap map[nodeKey]string // incoming node -> target RelID
	if inNodes := incoming.RelNodes(); len(inNodes) > 0 {
		curNodes := cur.RelNodes()
		relMap = make(map[nodeKey]string, len(inNodes))
		for _, in := range inNodes {
			bestID, bestSim := "", 0.0
			for _, ex := range curNodes {
				if ex.Predicate != in.Predicate {
					continue
				}
				if sim := relNodeSimilarity(in, ex); sim > bestSim {
					bestSim, bestID = sim, ex.RelID
				}
			}
			if bestSim < threshold {
				bestID = in.RelID // keep as a new node
			}
			relMap[nodeKey{in.Predicate, in.RelID}] = bestID
		}
	}
	for _, t := range incoming.Triples {
		if t.IsComposite() {
			t.RelID = relMap[nodeKey{t.Predicate, t.RelID}]
		}
		cur.Triples = append(cur.Triples, t)
	}
}

// resolveFunctionalConflicts runs truth discovery over functional-predicate
// slots carrying more than one value, keeps the winner, and drops the
// losers, reporting them for curation. cur must be deduped: then the facts
// of one slot are adjacent, ordered by object.
func (f *Fuser) resolveFunctionalConflicts(cur *triple.Entity) []Conflict {
	if f.Ont == nil {
		return nil
	}
	type slot struct {
		key    string
		lo, hi int // cur.Triples[lo:hi]
	}
	var contested []slot
	ts := cur.Triples
	for lo, hi := 0, 0; lo < len(ts); lo = hi {
		for hi = lo + 1; hi < len(ts) && sameSlot(ts[lo], ts[hi]); hi++ {
		}
		if hi-lo < 2 || ts[lo].IsComposite() {
			continue
		}
		if p, ok := f.Ont.Predicate(ts[lo].Predicate); ok && p.Card == ontology.Functional {
			contested = append(contested, slot{ts[lo].FactKey(), lo, hi})
		}
	}
	if len(contested) == 0 {
		return nil
	}
	var claims []truth.Claim
	for _, s := range contested {
		for _, t := range ts[s.lo:s.hi] {
			for _, src := range t.Sources {
				claims = append(claims, truth.Claim{Slot: s.key, Source: src, Value: t.Object})
			}
		}
	}
	slices.SortFunc(contested, func(a, b slot) int { return strings.Compare(a.key, b.key) })
	res := truth.Estimate(claims, f.Truth)
	conflicts := make([]Conflict, 0, len(contested))
	drop := make([]bool, len(ts))
	for _, s := range contested {
		winner, belief := res.Best(s.key)
		c := Conflict{Entity: cur.ID, Slot: s.key, Kept: winner, KeptBelief: belief}
		for i := s.lo; i < s.hi; i++ {
			if !ts[i].Object.Equal(winner) {
				c.Dropped = append(c.Dropped, ts[i].Object) // in object order, like the slot
				drop[i] = true
			}
		}
		conflicts = append(conflicts, c)
	}
	kept := ts[:0]
	for i, t := range ts {
		if !drop[i] {
			kept = append(kept, t)
		}
	}
	cur.Triples = kept
	return conflicts
}

// sameSlot reports whether two facts fill the same slot: everything but the
// object is equal.
func sameSlot(a, b triple.Triple) bool {
	return a.Subject == b.Subject && a.Predicate == b.Predicate && a.RelID == b.RelID &&
		a.RelPred == b.RelPred && a.Locale == b.Locale
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

// dropSource drops the source's attribution from the entity's facts in
// place, deleting each fact left with no source. sel picks the facts by
// predicate; nil picks every fact, and then a fact no source backs goes too.
func dropSource(e *triple.Entity, source string, sel func(pred string) bool) {
	kept := e.Triples[:0]
	for _, t := range e.Triples {
		if sel == nil || sel(t.Predicate) && t.HasSource(source) {
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
// non-destructive deletion path: facts from other sources survive. It is
// FuseBatch with one removal op.
func RemoveSource(g *triple.Graph, id triple.EntityID, source string) (entityDeleted bool) {
	_, deleted := (&Fuser{}).fuseBatch(g, id, []FuseOp{{RemoveSource: source}})
	return deleted
}

// ApplyVolatileOverwrite implements the optimized fusion path for volatile
// predicates (§2.4): the source's volatile partition of the KG entity is
// overwritten wholesale with the new payload — existing volatile facts from
// this source are removed, incoming ones inserted — with no join against the
// stable facts. It is FuseBatch with one overwrite op.
func ApplyVolatileOverwrite(g *triple.Graph, kgID triple.EntityID, source string, volatile *triple.Entity, ont *ontology.Ontology) {
	(&Fuser{Ont: ont}).FuseBatch(g, kgID, []FuseOp{{OverwriteSource: source, Incoming: volatile}})
}

// slotString renders a conflict slot for logs.
func (c Conflict) String() string {
	return fmt.Sprintf("%s kept=%s belief=%.2f dropped=%d", c.Slot, c.Kept.Text(), c.KeptBelief, len(c.Dropped))
}
