package kgq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"saga/internal/triple"
)

// TestPlanCacheReuse: planning the same query text twice returns the same
// compiled plan, including across engines sharing one cache.
func TestPlanCacheReuse(t *testing.T) {
	s := worldStore()
	e := NewEngine(s)
	const q = `entity(type="city") | rank() | limit(2) | attr("name")`
	p1, err := e.PlanText(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.PlanText(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("replanning the same text did not hit the plan cache")
	}
	other := NewEngine(s)
	other.Plans = e.Plans
	p3, err := other.PlanText(q)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("a second engine sharing the cache recompiled the plan")
	}
	if e.Plans.Len() != 1 {
		t.Fatalf("plan cache len = %d, want 1", e.Plans.Len())
	}
}

// TestPlanCacheLRUEviction: the cache holds its capacity, evicting the
// least recently used plan.
func TestPlanCacheLRUEviction(t *testing.T) {
	s := worldStore()
	e := NewEngine(s)
	e.Plans = NewPlanCache(2)
	texts := []string{
		`entity(type="city") | limit(1)`,
		`entity(type="city") | limit(2)`,
		`entity(type="city") | limit(3)`,
	}
	plans := make([]*Plan, len(texts))
	for i, q := range texts {
		p, err := e.PlanText(q)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	if e.Plans.Len() != 2 {
		t.Fatalf("cache len = %d, want capacity 2", e.Plans.Len())
	}
	// texts[0] was evicted: replanning compiles a fresh plan.
	p, err := e.PlanText(texts[0])
	if err != nil {
		t.Fatal(err)
	}
	if p == plans[0] {
		t.Fatal("evicted plan still served from the cache")
	}
	// texts[2] is still resident.
	p, err = e.PlanText(texts[2])
	if err != nil {
		t.Fatal(err)
	}
	if p != plans[2] {
		t.Fatal("resident plan was evicted out of LRU order")
	}
}

// TestRegisterVirtualPurgesCaches: redefining a virtual operator must drop
// compiled plans (they inline expansions) and cached results.
func TestRegisterVirtualPurgesCaches(t *testing.T) {
	s := worldStore()
	e := NewEngine(s)
	if _, err := e.Query(`entity(type="city") | limit(1)`); err != nil {
		t.Fatal(err)
	}
	if e.Plans.Len() == 0 {
		t.Fatal("query did not populate the plan cache")
	}
	if err := e.RegisterVirtual("big_cities", `entity(type="city") | rank() | limit(2)`); err != nil {
		t.Fatal(err)
	}
	if e.Plans.Len() != 0 {
		t.Fatal("RegisterVirtual left stale compiled plans cached")
	}
}

// TestCachedMatchesUncachedAcrossVersions is the serving correctness
// property: for every store version, the result-cached execution path and a
// cache-less engine pinned to the same snapshot return byte-identical
// results — and results differ across versions exactly when the data did.
func TestCachedMatchesUncachedAcrossVersions(t *testing.T) {
	s := worldStore()
	e := NewEngine(s)
	queries := []string{
		`entity(type="city") | rank() | limit(3) | attr("name")`,
		`entity(type="city") | filter("population", gt=1000000)`,
		`entity(type="city") | attr("name")`,
	}
	for round := 0; round < 5; round++ {
		// Advance the store version between rounds.
		extra := triple.NewEntity(triple.EntityID(fmt.Sprintf("kg:R%d", round)))
		extra.AddFact(triple.PredType, triple.String("city"))
		extra.AddFact(triple.PredName, triple.String(fmt.Sprintf("Round %d City", round)))
		extra.AddFact("population", triple.Float(float64(2000000+round)))
		s.Put(extra, 0.1)

		sn := s.Current()
		for _, q := range queries {
			plan, err := e.PlanText(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.ExecuteOn(plan, sn); err != nil {
				t.Fatal(err)
			}
			hits0, _ := e.CacheStats()
			cached, err := e.ExecuteOn(plan, sn) // second read: cache hit
			if err != nil {
				t.Fatal(err)
			}
			if hits1, _ := e.CacheStats(); hits1 != hits0+1 {
				t.Fatalf("round %d %q: repeat snapshot read missed the result cache", round, q)
			}
			fresh := NewEngine(s) // empty plan and result caches
			parsed, err := Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			freshPlan, err := fresh.Plan(parsed)
			if err != nil {
				t.Fatal(err)
			}
			uncached, err := fresh.ExecuteOn(freshPlan, sn)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(cached)
			b, _ := json.Marshal(uncached)
			if !bytes.Equal(a, b) {
				t.Fatalf("round %d %q: cached %s != uncached %s", round, q, a, b)
			}
		}
	}
}

// TestResultCacheVersionKeyed: a cached result is only served at the exact
// store version it was computed at.
func TestResultCacheVersionKeyed(t *testing.T) {
	s := worldStore()
	e := NewEngine(s)
	const q = `entity(type="city") | attr("name")`
	plan, err := e.PlanText(q)
	if err != nil {
		t.Fatal(err)
	}
	sn1 := s.Current()
	r1, err := e.ExecuteOn(plan, sn1)
	if err != nil {
		t.Fatal(err)
	}
	extra := triple.NewEntity("kg:VK")
	extra.AddFact(triple.PredType, triple.String("city"))
	extra.AddFact(triple.PredName, triple.String("Versionville"))
	s.Put(extra, 0)
	sn2 := s.Current()
	r2, err := e.ExecuteOn(plan, sn2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.IDs) != len(r1.IDs)+1 {
		t.Fatalf("version bump served a stale cached result: %d then %d", len(r1.IDs), len(r2.IDs))
	}
}
