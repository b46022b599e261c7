package construct

import (
	"sort"

	"saga/internal/triple"
)

// LinkParams configures the linking stage.
type LinkParams struct {
	// Blocker groups likely matches; nil uses DefaultBlocker.
	Blocker Blocker
	// Matchers provides per-type matching models; nil uses a RuleMatcher
	// default registry.
	Matchers *MatcherRegistry
	// Cluster holds the resolution thresholds.
	Cluster ClusterParams
	// MaxBlockSize bounds pair generation.
	MaxBlockSize int
	// Workers bounds intra-linking parallelism: candidate pairs are scored
	// and candidate-graph components clustered on a pool of this many
	// workers. 0 means GOMAXPROCS; 1 forces the sequential reference path.
	// Output is identical for every value — workers change wall-clock time,
	// never the KG.
	Workers int

	// budget, when set by the pipeline, is the shared helper-goroutine cap
	// the scoring and clustering pools draw from, so nested fan-out (deltas ×
	// types × components) stays bounded by one worker count instead of
	// multiplying. Nil (direct LinkEntities/LinkAgainstKG callers) sizes each
	// pool standalone.
	budget *WorkerBudget
}

func (p LinkParams) withDefaults() LinkParams {
	if p.Blocker == nil {
		p.Blocker = DefaultBlocker()
	}
	if p.Matchers == nil {
		p.Matchers = NewMatcherRegistry(RuleMatcher{})
	}
	return p
}

// LinkOutcome is the result of linking one type-grouped source payload
// against the KG view.
type LinkOutcome struct {
	// Assignment maps every source entity to its canonical KG ID (existing
	// or freshly minted).
	Assignment map[triple.EntityID]triple.EntityID
	// SameAs holds the provenance facts recording each source→KG link.
	SameAs []triple.Triple
	// Clusters is the raw resolution output.
	Clusters []Cluster
	// Blocking reports blocking statistics.
	Blocking BlockingResult
	// NewEntities counts freshly minted KG identifiers.
	NewEntities int
}

// typeResolution is the parallel-safe half of linking one type group: the
// payload combined with the KG view, blocked, scored, and clustered — but
// with no KG identifiers minted and no graph state touched. Resolutions for
// several type groups (and the components within each) can run concurrently;
// the sequential assign step then walks clusters in canonical order so
// minting is deterministic.
type typeResolution struct {
	entityType string
	src        []*triple.Entity
	byID       map[triple.EntityID]*triple.Entity
	clusters   []Cluster
	blocking   BlockingResult
}

// typeLinkPlan is the KG-read ("gather") half of linking one type group: the
// payload together with every KG-side candidate it needs, materialized from
// the KG state at gather time. solve — blocking on the scan path, pair
// scoring, clustering — is pure compute over the plan and never touches the
// KG again, so no delta of a batch observes mid-batch graph state however
// its compute is scheduled.
type typeLinkPlan struct {
	entityType string
	src        []*triple.Entity
	// Scan path: the full per-type KG view (deep copies), blocked in solve.
	kgView []*triple.Entity
	// Indexed path: the block-index probe plus the loaded KG-side candidates.
	indexed bool
	probe   ProbeResult
	kgEnts  []*triple.Entity
}

// gatherTypeGroup captures the scan path's KG reads: the materialized
// per-type KG view.
func gatherTypeGroup(src []*triple.Entity, kgView []*triple.Entity, entityType string) typeLinkPlan {
	return typeLinkPlan{entityType: entityType, src: src, kgView: kgView}
}

// gatherTypeGroupIndexed captures the indexed path's KG reads: instead of
// materializing the full per-type KG view, blocking keys are computed for the
// payload only and the BlockIndex supplies the KG-side members of exactly the
// touched blocks; only KG entities that participate in a candidate pair are
// loaded from the graph. Cost is O(|src| + touched-block occupancy) instead
// of O(|KG view|).
func gatherTypeGroupIndexed(src []*triple.Entity, kg *KG, index *BlockIndex, entityType string, params LinkParams) typeLinkPlan {
	pl := typeLinkPlan{entityType: entityType, src: src, indexed: true}
	pl.probe = index.GeneratePairs(src, entityType, GenerateParams{MaxBlockSize: params.MaxBlockSize})
	seen := make(map[triple.EntityID]bool, len(src))
	for _, e := range src {
		seen[e.ID] = true
	}
	for _, id := range pl.probe.KGSide {
		if seen[id] {
			continue
		}
		seen[id] = true
		// A posting can be momentarily stale (entity deleted after the last
		// refresh); skipping it matches the full scan never having seen the
		// entity. The loaded records are the graph's immutable shared entities
		// — scoring and clustering only read them, so candidate loading pays
		// no clone per entity.
		if e := kg.Graph.GetShared(id); e != nil {
			pl.kgEnts = append(pl.kgEnts, e)
		}
	}
	return pl
}

// solve runs the pure-compute half of linking a type group — blocking (scan
// path), pair scoring, and clustering on params.Workers workers — over the
// plan's materialized candidates. It never reads the KG.
func (pl typeLinkPlan) solve(params LinkParams) typeResolution {
	params = params.withDefaults()
	candidates := pl.kgView
	if pl.indexed {
		candidates = pl.kgEnts
	}
	combined := make([]*triple.Entity, 0, len(pl.src)+len(candidates))
	combined = append(combined, pl.src...)
	combined = append(combined, candidates...)
	byID := make(map[triple.EntityID]*triple.Entity, len(combined))
	nodes := make([]triple.EntityID, 0, len(combined))
	for _, e := range combined {
		if _, dup := byID[e.ID]; dup {
			continue
		}
		byID[e.ID] = e
		nodes = append(nodes, e.ID)
	}
	// The indexed gather already blocked against the index; the scan path
	// blocks its materialized view here.
	blocking := pl.probe.Blocking
	if !pl.indexed {
		blocking = GeneratePairs(combined, params.Blocker, GenerateParams{MaxBlockSize: params.MaxBlockSize})
	}
	matcher := params.Matchers.For(pl.entityType)
	scored := scorePairsParallel(blocking.Pairs, byID, matcher, params.Workers, params.budget)
	clusters := resolveParallel(nodes, scored, params.Cluster, params.Workers, params.budget)
	return typeResolution{entityType: pl.entityType, src: pl.src, byID: byID, clusters: clusters, blocking: blocking}
}

// resolveTypeGroup runs blocking, matching, and clustering for one type group
// on params.Workers workers, scanning the full KG view for candidates. It is
// read-only with respect to the KG. resolveTypeGroupIndexed is the
// incremental counterpart; both produce identical assignments.
func resolveTypeGroup(src []*triple.Entity, kgView []*triple.Entity, entityType string, params LinkParams) typeResolution {
	return gatherTypeGroup(src, kgView, entityType).solve(params)
}

// resolveTypeGroupIndexed is the incremental counterpart of resolveTypeGroup:
// gather probes the block index and loads only candidate KG entities, solve
// scores and clusters them.
//
// The resolution output is identical to resolveTypeGroup's restricted to
// clusters containing source entities — the only clusters assign consumes:
// every payload-touching candidate pair is generated by both paths (with the
// same MaxBlockSize capping of the combined block), KG entities with no
// candidate pair resolve to singleton KG clusters either way, and KG–KG
// pairs never influence Resolve. Assignments, minted identifiers, and
// same_as facts are therefore byte-identical between the two paths.
func resolveTypeGroupIndexed(src []*triple.Entity, kg *KG, index *BlockIndex, entityType string, params LinkParams) typeResolution {
	return gatherTypeGroupIndexed(src, kg, index, entityType, params.withDefaults()).solve(params)
}

// assign is the sequential half of linking: clusters are walked in their
// canonical order, fresh KG identifiers are minted for entirely-new clusters,
// and every source entity receives its assignment plus a same_as provenance
// fact. Callers must invoke assign in a deterministic order across type
// groups (and deltas) so mint produces the same identifiers on every run.
func (tr typeResolution) assign(mint func() triple.EntityID) LinkOutcome {
	out := LinkOutcome{
		Assignment: make(map[triple.EntityID]triple.EntityID, len(tr.src)),
		Clusters:   tr.clusters,
		Blocking:   tr.blocking,
	}
	srcSet := make(map[triple.EntityID]bool, len(tr.src))
	for _, e := range tr.src {
		srcSet[e.ID] = true
	}
	for _, c := range tr.clusters {
		// Only clusters containing source entities produce assignments.
		var members []triple.EntityID
		for _, m := range c.Members {
			if srcSet[m] {
				members = append(members, m)
			}
		}
		if len(members) == 0 {
			continue
		}
		kgID := c.KG
		if kgID == "" {
			kgID = mint()
			out.NewEntities++
		}
		for _, m := range members {
			out.Assignment[m] = kgID
			same := triple.New(kgID, triple.PredSameAs, triple.Ref(m))
			if e := tr.byID[m]; e != nil {
				if srcs := e.SourceSet(); len(srcs) > 0 {
					same = same.WithSource(srcs[0], 1)
				}
			}
			out.SameAs = append(out.SameAs, same)
		}
	}
	sort.Slice(out.SameAs, func(i, j int) bool {
		return triple.CompareTriples(out.SameAs[i], out.SameAs[j]) < 0
	})
	return out
}

// LinkEntities performs in-source deduplication and subject linking for one
// entity type (§2.3): the source payload is combined with the KG view, pairs
// are generated by blocking, scored by the type's matching model, and
// resolved into clusters; every source entity is assigned the cluster's KG
// identifier, minted through mint when the cluster is entirely new. Duplicate
// source entities land in one cluster and share one assignment, which is the
// in-source deduplication metadata fusion consumes. Scoring and clustering
// run on params.Workers workers; the result is identical for every worker
// count.
func LinkEntities(src []*triple.Entity, kgView []*triple.Entity, entityType string, mint func() triple.EntityID, params LinkParams) LinkOutcome {
	return resolveTypeGroup(src, kgView, entityType, params).assign(mint)
}

// LinkAgainstKG is the incremental form of LinkEntities: candidates come from
// probing the block index instead of scanning a materialized KG view, so the
// cost of linking one payload is proportional to the payload, not the KG.
// Assignments, minted identifiers, and same_as facts are byte-identical to
// LinkEntities over the full KG view of the same state (blocking statistics
// differ: the indexed path never counts untouched blocks or inert KG–KG
// pairs). The index must have been built over kg with params' blocker.
func LinkAgainstKG(src []*triple.Entity, kg *KG, index *BlockIndex, entityType string, mint func() triple.EntityID, params LinkParams) LinkOutcome {
	return resolveTypeGroupIndexed(src, kg, index, entityType, params).assign(mint)
}

// GroupByType partitions entities by their primary ontology type, returning
// the groups keyed by type plus the sorted type list; untyped entities group
// under "".
func GroupByType(entities []*triple.Entity) (map[string][]*triple.Entity, []string) {
	groups := make(map[string][]*triple.Entity)
	for _, e := range entities {
		groups[e.Type()] = append(groups[e.Type()], e)
	}
	types := make([]string, 0, len(groups))
	for t := range groups {
		types = append(types, t)
	}
	sort.Strings(types)
	return groups, types
}
