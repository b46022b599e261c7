package kgq

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"saga/internal/live"
	"saga/internal/triple"
)

// Result is a query's output: the final entity set and, after an attr()
// projection, the projected values.
type Result struct {
	IDs    []triple.EntityID
	Values []triple.Value
}

// Texts renders projected values as strings.
func (r Result) Texts() []string {
	out := make([]string, len(r.Values))
	for i, v := range r.Values {
		out[i] = v.Text()
	}
	return out
}

// Engine compiles and executes KGQ queries against a live store. The public
// contract is Parse → Plan → Execute: Parse turns text into a Query AST,
// Plan compiles it (virtual expansion, operator pushdown) into an immutable
// Plan safe for concurrent reuse, and Execute runs a Plan against a
// versioned snapshot of the store. Query(text) wraps all three with an LRU
// plan cache keyed on query text and a result cache keyed on
// (plan, store version), so hot queries are invalidated exactly when the
// live KG changes (§4.2). The engine also supports virtual operators and
// intra-query parallelism for wide traversals.
type Engine struct {
	Store *live.Store
	// FanOutThreshold is the entity-set size above which traversals run in
	// parallel; default 64.
	FanOutThreshold int
	// Plans caches compiled plans by query text. NewEngine installs a
	// private cache; engines may share one, provided every engine registers
	// the same virtual operators (plans bake virtuals in at compile time).
	Plans *PlanCache

	mu       sync.RWMutex
	virtuals map[string]Query

	results resultCache
}

// NewEngine constructs an engine over a live store with a private plan
// cache.
func NewEngine(store *live.Store) *Engine {
	return &Engine{
		Store:    store,
		Plans:    NewPlanCache(512),
		virtuals: make(map[string]Query),
		results:  newResultCache(1024),
	}
}

// Plan is a compiled KGQ query: virtuals expanded, pushdown applied, stages
// frozen. Plans are immutable and safe for concurrent reuse across
// goroutines; compile once, execute many times.
type Plan struct {
	key    string
	stages []Stage
}

// String renders the compiled pipeline as canonical KGQ text. Two queries
// that compile to the same pipeline share the same string — and therefore
// the same result-cache entries.
func (p *Plan) String() string { return p.key }

// RegisterVirtual defines a virtual operator: a named, reusable KGQ pipeline
// with positional parameters $1, $2, ... that expands inline at compile time.
// Virtual operators encapsulate complex expressions for reuse across use
// cases (§4.2). Registering purges the plan and result caches: existing
// plans were compiled without the new operator.
func (e *Engine) RegisterVirtual(name, definition string) error {
	q, err := Parse(definition)
	if err != nil {
		return fmt.Errorf("kgq: virtual %s: %w", name, err)
	}
	e.mu.Lock()
	if _, dup := e.virtuals[name]; dup {
		e.mu.Unlock()
		return fmt.Errorf("kgq: virtual %s already registered", name)
	}
	e.virtuals[name] = q
	e.mu.Unlock()
	e.Plans.Purge()
	e.results.purge()
	return nil
}

// expand splices virtual operators into the pipeline, substituting $n
// parameters; nested virtuals expand recursively with a depth bound.
func expand(q Query, virtuals map[string]Query, depth int) (Query, error) {
	if depth > 8 {
		return q, fmt.Errorf("kgq: virtual operator expansion too deep (cycle?)")
	}
	var out Query
	for _, stage := range q.Stages {
		tmpl, ok := virtuals[stage.Name]
		if !ok {
			out.Stages = append(out.Stages, stage)
			continue
		}
		expanded, err := expand(substituteParams(tmpl, stage.Args), virtuals, depth+1)
		if err != nil {
			return q, err
		}
		out.Stages = append(out.Stages, expanded.Stages...)
	}
	return out, nil
}

func substituteParams(tmpl Query, args []Arg) Query {
	positional := make([]Arg, 0, len(args))
	for _, a := range args {
		if a.Key == "" {
			positional = append(positional, a)
		}
	}
	out := Query{Stages: make([]Stage, len(tmpl.Stages))}
	for i, s := range tmpl.Stages {
		ns := Stage{Name: s.Name, Args: make([]Arg, len(s.Args))}
		for j, a := range s.Args {
			if !a.IsNum && strings.HasPrefix(a.Str, "$") {
				if n, err := parseParamIndex(a.Str); err == nil && n >= 1 && n <= len(positional) {
					sub := positional[n-1]
					sub.Key = a.Key
					ns.Args[j] = sub
					continue
				}
			}
			ns.Args[j] = a
		}
		out.Stages[i] = ns
	}
	return out
}

func parseParamIndex(s string) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "$%d", &n)
	return n, err
}

// Query parses, plans, and executes KGQ text — the thin compatibility
// wrapper over PlanText + Execute. Hot query texts hit the plan cache; hot
// (plan, store version) pairs hit the result cache.
func (e *Engine) Query(text string) (Result, error) {
	p, err := e.PlanText(text)
	if err != nil {
		return Result{}, err
	}
	return e.Execute(p)
}

// PlanText compiles KGQ text into a Plan, consulting the engine's plan
// cache keyed on the raw text.
func (e *Engine) PlanText(text string) (*Plan, error) {
	if p, ok := e.Plans.get(text); ok {
		return p, nil
	}
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	p, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	e.Plans.put(text, p)
	return p, nil
}

// Plan compiles a parsed query: virtual expansion, operator pushdown, and a
// defensive deep copy so the resulting Plan shares no mutable state with the
// caller's Query or with other plans.
func (e *Engine) Plan(q Query) (*Plan, error) {
	e.mu.RLock()
	virtuals := make(map[string]Query, len(e.virtuals))
	for k, v := range e.virtuals {
		virtuals[k] = v
	}
	e.mu.RUnlock()
	q, err := expand(q, virtuals, 0)
	if err != nil {
		return nil, err
	}
	q = pushdown(copyQuery(q))
	return &Plan{key: q.String(), stages: q.Stages}, nil
}

// copyQuery deep-copies stages and their arg slices so pushdown (and any
// later holder of the plan) cannot alias the caller's memory.
func copyQuery(q Query) Query {
	out := Query{Stages: make([]Stage, len(q.Stages))}
	for i, s := range q.Stages {
		out.Stages[i] = Stage{Name: s.Name, Args: append([]Arg(nil), s.Args...)}
	}
	return out
}

// Execute runs a compiled plan against the current store snapshot. Reads
// are lock-free and never contend with ingestion writes; the snapshot's
// version keys the result cache, so a cached result is served only while
// the live KG is byte-identical to when it was computed.
func (e *Engine) Execute(p *Plan) (Result, error) {
	return e.ExecuteOn(p, e.Store.Current())
}

// ExecuteOn runs a compiled plan against an explicit read view — a
// *live.Snapshot pinned by the serving tier, or a *live.Store for locked
// live reads. Results are cached per (plan, view version) when the view is
// a snapshot; live-store views bypass the cache since their version can
// move mid-query.
func (e *Engine) ExecuteOn(p *Plan, v live.View) (Result, error) {
	_, frozen := v.(*live.Snapshot)
	version := v.Version()
	if frozen {
		if res, ok := e.results.get(p.key, version); ok {
			return res, nil
		}
	}
	x := executor{view: v, fanOutThreshold: e.FanOutThreshold}
	var res Result
	seeded := false
	var err error
	for _, stage := range p.stages {
		res, seeded, err = x.applyStage(res, seeded, stage)
		if err != nil {
			return Result{}, err
		}
	}
	if frozen {
		e.results.put(p.key, version, res)
	}
	return res, nil
}

// CacheStats reports result-cache hits and misses since construction.
func (e *Engine) CacheStats() (hits, misses uint64) { return e.results.stats() }

// pushdown merges filter(pred=..., eq=...) stages into a preceding entity()
// seed so the equality runs against the inverted index instead of post-hoc
// (operator pushdown, §4.2).
func pushdown(q Query) Query {
	var out Query
	for _, stage := range q.Stages {
		if stage.Name == "filter" && len(out.Stages) > 0 {
			last := &out.Stages[len(out.Stages)-1]
			if last.Name == "entity" {
				pred, okP := stage.Arg("pred", 0)
				eq, okE := stage.Arg("eq", 1)
				if okP && okE && !eq.IsNum {
					last.Args = append(last.Args, Arg{Key: pred.Text(), Str: eq.Str})
					continue
				}
			}
		}
		out.Stages = append(out.Stages, stage)
	}
	return out
}

// executor evaluates plan stages against one read view. Entity reads use
// GetShared — stored records are immutable after insert, so execution never
// clones on the hot path.
type executor struct {
	view            live.View
	fanOutThreshold int
}

func (x executor) applyStage(in Result, seeded bool, stage Stage) (Result, bool, error) {
	switch stage.Name {
	case "entity":
		if len(stage.Args) == 0 {
			return in, seeded, fmt.Errorf("kgq: entity() needs at least one constraint")
		}
		var sets [][]triple.EntityID
		for _, a := range stage.Args {
			if a.Key == "type" {
				sets = append(sets, x.view.ByType(a.Str))
			} else if a.Key != "" {
				sets = append(sets, x.view.ByAttr(a.Key, a.Text()))
			} else {
				return in, seeded, fmt.Errorf("kgq: entity() arguments must be key=value")
			}
		}
		return Result{IDs: intersect(sets)}, true, nil
	case "search":
		qa, ok := stage.Arg("q", 0)
		if !ok {
			return in, seeded, fmt.Errorf("kgq: search() needs a query string")
		}
		k := 10
		if ka, ok := stage.Arg("k", 1); ok && ka.IsNum {
			k = int(ka.Num)
		}
		hits := x.view.SearchText(qa.Str, k)
		ids := make([]triple.EntityID, len(hits))
		for i, h := range hits {
			ids[i] = triple.EntityID(h.ID)
		}
		return Result{IDs: ids}, true, nil
	case "id":
		var ids []triple.EntityID
		for _, a := range stage.Args {
			if x.view.GetShared(triple.EntityID(a.Str)) != nil {
				ids = append(ids, triple.EntityID(a.Str))
			}
		}
		return Result{IDs: ids}, true, nil
	case "follow":
		pa, ok := stage.Arg("pred", 0)
		if !ok {
			return in, seeded, fmt.Errorf("kgq: follow() needs a predicate")
		}
		return Result{IDs: x.follow(in.IDs, pa.Str)}, seeded, nil
	case "in":
		pa, ok := stage.Arg("pred", 0)
		if !ok {
			return in, seeded, fmt.Errorf("kgq: in() needs a predicate")
		}
		var out []triple.EntityID
		seen := make(map[triple.EntityID]bool)
		for _, id := range in.IDs {
			for _, src := range x.view.InRefs(pa.Str, id) {
				if !seen[src] {
					seen[src] = true
					out = append(out, src)
				}
			}
		}
		sortIDs(out)
		return Result{IDs: out}, seeded, nil
	case "filter":
		return x.applyFilter(in, stage)
	case "rank":
		ids := append([]triple.EntityID(nil), in.IDs...)
		sort.SliceStable(ids, func(i, j int) bool {
			bi, bj := x.view.Boost(ids[i]), x.view.Boost(ids[j])
			if bi != bj {
				return bi > bj
			}
			return ids[i] < ids[j]
		})
		return Result{IDs: ids, Values: in.Values}, seeded, nil
	case "limit":
		na, ok := stage.Arg("n", 0)
		if !ok || !na.IsNum || na.Num < 0 {
			return in, seeded, fmt.Errorf("kgq: limit() needs a non-negative count")
		}
		// Compare as floats: a count past the int range must not wrap.
		out := in
		if float64(len(out.IDs)) > na.Num {
			out.IDs = out.IDs[:int(na.Num)]
		}
		if float64(len(out.Values)) > na.Num {
			out.Values = out.Values[:int(na.Num)]
		}
		return out, seeded, nil
	case "attr":
		pa, ok := stage.Arg("pred", 0)
		if !ok {
			return in, seeded, fmt.Errorf("kgq: attr() needs a predicate")
		}
		out := Result{IDs: in.IDs}
		for _, id := range in.IDs {
			if ent := x.view.GetShared(id); ent != nil {
				out.Values = append(out.Values, valuesOf(ent, pa.Str)...)
			}
		}
		return out, seeded, nil
	default:
		return in, seeded, fmt.Errorf("kgq: unknown operator %q", stage.Name)
	}
}

// follow traverses reference edges; sets beyond FanOutThreshold shard across
// goroutines (intra-query parallelism, §4.2).
func (x executor) follow(ids []triple.EntityID, pred string) []triple.EntityID {
	threshold := x.fanOutThreshold
	if threshold == 0 {
		threshold = 64
	}
	collect := func(ids []triple.EntityID) []triple.EntityID {
		var out []triple.EntityID
		for _, id := range ids {
			ent := x.view.GetShared(id)
			if ent == nil {
				continue
			}
			for _, v := range valuesOf(ent, pred) {
				if v.IsRef() {
					out = append(out, v.Ref())
				}
			}
		}
		return out
	}
	var merged []triple.EntityID
	if len(ids) <= threshold {
		merged = collect(ids)
	} else {
		workers := 4
		chunk := (len(ids) + workers - 1) / workers
		results := make([][]triple.EntityID, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(ids) {
				break
			}
			hi := lo + chunk
			if hi > len(ids) {
				hi = len(ids)
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				results[w] = collect(ids[lo:hi])
			}(w, lo, hi)
		}
		wg.Wait()
		for _, r := range results {
			merged = append(merged, r...)
		}
	}
	seen := make(map[triple.EntityID]bool, len(merged))
	out := merged[:0]
	for _, id := range merged {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

func (x executor) applyFilter(in Result, stage Stage) (Result, bool, error) {
	pa, ok := stage.Arg("pred", 0)
	if !ok {
		return in, true, fmt.Errorf("kgq: filter() needs a predicate")
	}
	eq, hasEq := stage.Arg("eq", -1)
	gt, hasGt := stage.Arg("gt", -1)
	lt, hasLt := stage.Arg("lt", -1)
	if !hasEq && !hasGt && !hasLt {
		return in, true, fmt.Errorf("kgq: filter() needs eq=, gt=, or lt=")
	}
	var out []triple.EntityID
	for _, id := range in.IDs {
		ent := x.view.GetShared(id)
		if ent == nil {
			continue
		}
		match := false
		for _, v := range valuesOf(ent, pa.Str) {
			if hasEq && strings.EqualFold(v.Text(), eq.Text()) {
				match = true
			}
			if hasGt && v.Float64() > gt.Num {
				match = true
			}
			if hasLt && v.Float64() < lt.Num {
				match = true
			}
		}
		if match {
			out = append(out, id)
		}
	}
	return Result{IDs: out}, true, nil
}

// valuesOf returns the entity's objects for a predicate; "pred.relpred"
// addresses composite relationship attributes.
func valuesOf(e *triple.Entity, pred string) []triple.Value {
	if dot := strings.IndexByte(pred, '.'); dot >= 0 {
		base, relPred := pred[:dot], pred[dot+1:]
		var out []triple.Value
		for _, n := range e.RelNodes() {
			if n.Predicate == base {
				if v := n.Attr(relPred); !v.IsNull() {
					out = append(out, v)
				}
			}
		}
		return out
	}
	return e.Get(pred)
}

func intersect(sets [][]triple.EntityID) []triple.EntityID {
	if len(sets) == 0 {
		return nil
	}
	counts := make(map[triple.EntityID]int)
	for _, set := range sets {
		for _, id := range set {
			counts[id]++
		}
	}
	var out []triple.EntityID
	for id, n := range counts {
		if n == len(sets) {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []triple.EntityID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
