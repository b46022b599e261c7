// Package views implements KG view lifecycle management (§3.2): clients
// consume derived views of the KG rather than the raw graph, and the
// platform materializes those views when a new KG is constructed and
// incrementally maintains them as the KG changes. A view can be any
// transformation — subgraph, schematized relational view, aggregate, or an
// iterative computation like PageRank or embeddings. View definitions are
// scripted against their target engine's native API and registered in a
// central catalog alongside their dependencies; the View Manager executes the
// dependency DAG, reusing shared ancestor views across dependents (the
// multi-query optimization that yielded the paper's 26% run-time
// improvement).
package views

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"saga/internal/triple"
)

// Context is passed to view procedures: it carries the KG snapshot the run
// observes and the artifact space where views publish their outputs for
// dependents and external consumers. Artifacts are the cross-engine
// intermediate results of Figure 7 (an analytics-engine view consumed by the
// embedding trainer, for example); the Manager owns their lifecycle.
type Context struct {
	// Graph is the KG snapshot for this run. Snapshots are copy-on-write
	// (triple.Graph.Snapshot is O(1)), so taking one per materialization
	// run is cheap even on a large KG; view procedures should read it through
	// the clone-free paths (GetShared, RangeShared) and never mutate the
	// entities those return.
	Graph *triple.Graph

	mu        sync.RWMutex
	artifacts map[string]any
}

// NewContext builds a run context over a graph snapshot.
func NewContext(g *triple.Graph) *Context {
	return &Context{Graph: g, artifacts: make(map[string]any)}
}

// SetArtifact publishes a view's output under its name.
func (c *Context) SetArtifact(name string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.artifacts[name] = v
}

// Artifact retrieves a published output.
func (c *Context) Artifact(name string) (any, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.artifacts[name]
	return v, ok
}

// DropArtifact removes an intermediate artifact once all dependents consumed
// it.
func (c *Context) DropArtifact(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.artifacts, name)
}

// Definition registers one view: its procedures, dependencies, and freshness
// SLA. Create fully materializes; Update incrementally maintains given the
// changed entity IDs (nil Update falls back to Create); Drop releases
// engine-side state.
type Definition struct {
	// Name uniquely identifies the view in the catalog.
	Name string
	// Engine names the target storage engine (documentation and routing).
	Engine string
	// DependsOn lists views whose artifacts this view consumes.
	DependsOn []string
	// FreshnessSLA is the staleness bound the manager aims for; zero means
	// best-effort.
	FreshnessSLA time.Duration
	// Create fully materializes the view.
	Create func(ctx *Context) error
	// Update incrementally maintains the view for the changed entities.
	Update func(ctx *Context, changed []triple.EntityID) error
	// Drop releases the view's engine-side state.
	Drop func(ctx *Context) error
}

// Catalog is the central registry of view definitions and dependencies.
type Catalog struct {
	mu   sync.RWMutex
	defs map[string]Definition
}

// NewCatalog constructs an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{defs: make(map[string]Definition)}
}

// Register adds a definition, validating the name, the Create procedure, and
// that dependencies resolve without cycles.
func (c *Catalog) Register(def Definition) error {
	if def.Name == "" {
		return fmt.Errorf("views: definition has no name")
	}
	if def.Create == nil {
		return fmt.Errorf("views: view %s has no Create procedure", def.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.defs[def.Name]; dup {
		return fmt.Errorf("views: view %s already registered", def.Name)
	}
	for _, dep := range def.DependsOn {
		if _, ok := c.defs[dep]; !ok {
			return fmt.Errorf("views: view %s depends on unregistered %s", def.Name, dep)
		}
	}
	// Dependencies must already exist, so cycles are impossible by
	// construction; registration order is the topological order.
	c.defs[def.Name] = def
	return nil
}

// Get returns a definition by name.
func (c *Catalog) Get(name string) (Definition, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.defs[name]
	return d, ok
}

// Names lists registered views, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.defs))
	for n := range c.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// topoOrder returns the requested views plus their transitive dependencies in
// dependency-first order.
func (c *Catalog) topoOrder(roots []string) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("views: dependency cycle through %s", name)
		}
		def, ok := c.defs[name]
		if !ok {
			return fmt.Errorf("views: unknown view %s", name)
		}
		state[name] = 1
		deps := append([]string(nil), def.DependsOn...)
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[name] = 2
		order = append(order, name)
		return nil
	}
	sorted := append([]string(nil), roots...)
	sort.Strings(sorted)
	for _, r := range sorted {
		if err := visit(r); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// RunStats reports what a manager run executed.
type RunStats struct {
	// Materialized lists the views evaluated, in execution order.
	Materialized []string
	// Reused counts dependency evaluations avoided by sharing.
	Reused int
	// Duration is the wall-clock run time.
	Duration time.Duration
}

// Manager coordinates view execution over the catalog.
type Manager struct {
	Catalog *Catalog
}

// NewManager wires a manager over a catalog.
func NewManager(c *Catalog) *Manager { return &Manager{Catalog: c} }

// Materialize evaluates the named views and their dependencies in dependency
// order, evaluating every shared ancestor exactly once (multi-query
// optimization via common-view reuse).
func (m *Manager) Materialize(ctx *Context, names ...string) (RunStats, error) {
	start := time.Now()
	order, err := m.Catalog.topoOrder(names)
	if err != nil {
		return RunStats{}, err
	}
	var stats RunStats
	for _, name := range order {
		def, _ := m.Catalog.Get(name)
		if err := def.Create(ctx); err != nil {
			return stats, fmt.Errorf("views: create %s: %w", name, err)
		}
		stats.Materialized = append(stats.Materialized, name)
	}
	// Reuse accounting: total dependency evaluations a naive per-sink run
	// would perform, minus what we actually ran.
	naive := 0
	for _, name := range names {
		chain, err := m.Catalog.topoOrder([]string{name})
		if err != nil {
			return stats, err
		}
		naive += len(chain)
	}
	stats.Reused = naive - len(order)
	stats.Duration = time.Since(start)
	return stats, nil
}

// MaterializeNoReuse evaluates each named view's full dependency chain
// independently, recomputing shared ancestors per sink. It is the ablation
// baseline quantifying the 26% reuse improvement.
func (m *Manager) MaterializeNoReuse(ctx *Context, names ...string) (RunStats, error) {
	start := time.Now()
	var stats RunStats
	for _, name := range names {
		chain, err := m.Catalog.topoOrder([]string{name})
		if err != nil {
			return stats, err
		}
		for _, dep := range chain {
			def, _ := m.Catalog.Get(dep)
			if err := def.Create(ctx); err != nil {
				return stats, fmt.Errorf("views: create %s: %w", dep, err)
			}
			stats.Materialized = append(stats.Materialized, dep)
		}
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// Refresh incrementally maintains the named views (and dependencies) for the
// changed entities, falling back to full materialization for views without
// an Update procedure.
func (m *Manager) Refresh(ctx *Context, changed []triple.EntityID, names ...string) (RunStats, error) {
	start := time.Now()
	order, err := m.Catalog.topoOrder(names)
	if err != nil {
		return RunStats{}, err
	}
	var stats RunStats
	for _, name := range order {
		def, _ := m.Catalog.Get(name)
		if def.Update != nil {
			if err := def.Update(ctx, changed); err != nil {
				return stats, fmt.Errorf("views: update %s: %w", name, err)
			}
		} else if err := def.Create(ctx); err != nil {
			return stats, fmt.Errorf("views: create %s: %w", name, err)
		}
		stats.Materialized = append(stats.Materialized, name)
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// Drop releases the named view and clears its artifact.
func (m *Manager) Drop(ctx *Context, name string) error {
	def, ok := m.Catalog.Get(name)
	if !ok {
		return fmt.Errorf("views: unknown view %s", name)
	}
	if def.Drop != nil {
		if err := def.Drop(ctx); err != nil {
			return fmt.Errorf("views: drop %s: %w", name, err)
		}
	}
	ctx.DropArtifact(name)
	return nil
}
