package kgq

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// PlanCache is a bounded LRU cache of compiled plans keyed on query text,
// safe for concurrent use. One cache can back several engines as long as
// every engine registers the same virtual operators — plans bake virtuals
// in at compile time.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *planEntry
	entries map[string]*list.Element
}

type planEntry struct {
	text string
	plan *Plan
}

// NewPlanCache constructs a plan cache holding up to capacity plans;
// capacity <= 0 defaults to 512.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 512
	}
	return &PlanCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

func (c *PlanCache) get(text string) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[text]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*planEntry).plan, true
}

func (c *PlanCache) put(text string, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[text]; ok {
		el.Value.(*planEntry).plan = p
		c.order.MoveToFront(el)
		return
	}
	c.entries[text] = c.order.PushFront(&planEntry{text: text, plan: p})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).text)
	}
}

// Purge drops every cached plan.
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// resultCache is a bounded LRU of query results keyed on (plan, store
// version): one entry per plan key, tagged with the snapshot version it was
// computed at, so a result is served only while the store is unchanged — a
// version bump makes every prior entry a miss and the next execution
// overwrites it.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // values are *resultEntry
	entries map[string]*list.Element

	hits, misses atomic.Uint64
}

type resultEntry struct {
	key     string
	version uint64
	result  Result
}

func newResultCache(capacity int) resultCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

func (c *resultCache) get(key string, version uint64) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*resultEntry)
		if ent.version == version {
			c.order.MoveToFront(el)
			c.hits.Add(1)
			return ent.result, true
		}
	}
	c.misses.Add(1)
	return Result{}, false
}

func (c *resultCache) put(key string, version uint64, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*resultEntry)
		ent.version, ent.result = version, res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&resultEntry{key: key, version: version, result: res})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*resultEntry).key)
	}
}

func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
}

func (c *resultCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
