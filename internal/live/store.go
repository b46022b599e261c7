// Package live implements Saga's Live Knowledge Graph (§4): the union of a
// view of the stable graph with real-time streaming sources (sports scores,
// stock prices, flights), indexed for low-latency graph search under high
// concurrency. The store maintains an inverted graph index (tokens and
// attribute values to entities, plus reverse reference postings) alongside a
// key-value entity store, both updated in real time. Live graph
// construction links streaming events' entity mentions to stable entities,
// and the query engine (the kgq subpackage) serves ad-hoc structured queries
// and query intents with multi-turn context.
//
// Serving reads go through versioned immutable snapshots (Store.Current):
// the store publishes a copy-on-write view of every index at its current
// version, so query evaluation never takes the store's locks and never
// contends with streaming ingestion. See Snapshot for the contract.
package live

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saga/internal/store/textindex"
	"saga/internal/triple"
)

// View is a read view of the live KG: either the live *Store (reads take
// the store's locks and observe writes immediately) or an immutable
// *Snapshot (lock-free reads frozen at one version). The query engine and
// the serving tier evaluate against a View, so the same execution code runs
// on both. Entities returned by GetShared are shared records and must not
// be mutated.
type View interface {
	// Version is the store version the view reads at; it increments on
	// every write, so result caches key on it for exact invalidation.
	Version() uint64
	// Len returns the number of live entities.
	Len() int
	// Get returns a private copy of the entity, or nil.
	Get(id triple.EntityID) *triple.Entity
	// GetShared returns the stored record itself — read-only — or nil.
	GetShared(id triple.EntityID) *triple.Entity
	// ByAttr returns entities with pred equal (by normalized text) to value.
	ByAttr(pred, value string) []triple.EntityID
	// ByType returns entities of the given type.
	ByType(typ string) []triple.EntityID
	// InRefs returns entities whose predicate references the target.
	InRefs(pred string, target triple.EntityID) []triple.EntityID
	// Boost returns the entity's ranking boost.
	Boost(id triple.EntityID) float64
	// SearchText runs ranked token search over names/aliases/descriptions.
	SearchText(query string, k int) []textindex.Hit
}

// idSet is one posting list: an entity set plus the snapshot epoch it was
// last cloned at, so writers copy it before mutating if a snapshot still
// references it (copy-on-write).
type idSet struct {
	ids   map[triple.EntityID]bool
	epoch uint64
}

// Store is the live KG index: a graph KV store plus inverted indexes
// optimized for low-latency retrieval under concurrent requests. All methods
// are safe for concurrent use; one lock guards the entity KV and the
// inverted indexes, and published snapshots (Current) take serving reads off
// it entirely.
type Store struct {
	// text is the token index over entity names/aliases used by search().
	text *textindex.Index

	mu sync.RWMutex
	// data is the entity KV: ID -> stored (immutable) record.
	data map[triple.EntityID]*triple.Entity
	// attr maps predicate\x1fvalueText -> entity set (equality lookups).
	attr map[string]*idSet
	// reverse maps predicate\x1ftargetID -> source entity set (in() walks).
	reverse map[string]*idSet
	// byType maps entity type -> entity set.
	byType map[string]*idSet
	// boost holds per-entity ranking boosts (entity importance).
	boost map[triple.EntityID]float64

	// version increments on every write; query caches use it to invalidate.
	version atomic.Uint64

	// pubMu gates snapshot publication against writers: every write holds
	// the read side for its whole operation (entity KV + inverted indexes +
	// text index + version bump), and Snapshot takes the write side, so a
	// snapshot always captures a write-atomic cut — a store version uniquely
	// identifies index content.
	pubMu sync.RWMutex
	// snapEpoch counts published snapshots; idxEpoch records when the
	// top-level maps (data and the indexes) were last copied. Guarded by
	// pubMu (writers read under RLock, Snapshot bumps under Lock).
	snapEpoch uint64
	idxEpoch  uint64

	// cur is the most recently published snapshot; Current revalidates it
	// against version and republishes when stale. snapAt records when it
	// was captured (unix nanos) so Serving can bound republish frequency.
	cur    atomic.Pointer[Snapshot]
	snapAt atomic.Int64
}

// Version returns a counter that increments on every write, letting query
// result caches detect staleness cheaply.
func (s *Store) Version() uint64 { return s.version.Load() }

// NewStore constructs an empty live store.
func NewStore() *Store {
	return &Store{
		text:    textindex.New(),
		data:    make(map[triple.EntityID]*triple.Entity),
		attr:    make(map[string]*idSet),
		reverse: make(map[string]*idSet),
		byType:  make(map[string]*idSet),
		boost:   make(map[triple.EntityID]float64),
	}
}

func attrKey(pred, valText string) string { return pred + "\x1f" + valText }

// cowIndexLocked shallow-copies the entity map and the top-level index maps
// the first time a writer runs after a snapshot. Posting sets get their own
// per-key copy in cowSetLocked. Caller holds s.mu and the pubMu read side.
func (s *Store) cowIndexLocked() {
	if s.idxEpoch == s.snapEpoch {
		return
	}
	s.idxEpoch = s.snapEpoch
	data := make(map[triple.EntityID]*triple.Entity, len(s.data))
	for id, e := range s.data {
		data[id] = e
	}
	s.data = data
	attr := make(map[string]*idSet, len(s.attr))
	for k, v := range s.attr {
		attr[k] = v
	}
	s.attr = attr
	reverse := make(map[string]*idSet, len(s.reverse))
	for k, v := range s.reverse {
		reverse[k] = v
	}
	s.reverse = reverse
	byType := make(map[string]*idSet, len(s.byType))
	for k, v := range s.byType {
		byType[k] = v
	}
	s.byType = byType
	boost := make(map[triple.EntityID]float64, len(s.boost))
	for k, v := range s.boost {
		boost[k] = v
	}
	s.boost = boost
}

// cowSetLocked returns m[key]'s posting set ready for mutation, cloning it
// first if a snapshot still references it; creates the set when absent.
func (s *Store) cowSetLocked(m map[string]*idSet, key string) *idSet {
	set := m[key]
	if set == nil {
		set = &idSet{ids: make(map[triple.EntityID]bool), epoch: s.snapEpoch}
		m[key] = set
		return set
	}
	if set.epoch < s.snapEpoch {
		clone := &idSet{ids: make(map[triple.EntityID]bool, len(set.ids)), epoch: s.snapEpoch}
		for id := range set.ids {
			clone.ids[id] = true
		}
		m[key] = clone
		return clone
	}
	return set
}

// Put indexes (replacing) an entity: KV payload, attribute postings, reverse
// reference postings, type sets, and the token index. Streaming updates call
// Put at high frequency; curation hot fixes call it directly too. The stored
// record is a private clone and is never mutated afterwards, which is what
// lets snapshots and GetShared hand it out without copying.
func (s *Store) Put(e *triple.Entity, boost float64) {
	s.pubMu.RLock()
	defer s.pubMu.RUnlock()
	clone := e.Clone()
	s.mu.Lock()
	s.cowIndexLocked()
	old := s.data[clone.ID]
	s.data[clone.ID] = clone
	if old != nil {
		s.unindexLocked(old)
	}
	s.indexLocked(clone, boost)
	s.mu.Unlock()

	s.text.Put(textindex.Doc{ID: string(clone.ID), Text: docText(clone), Boost: 1 + boost})
	s.version.Add(1)
}

// Delete removes an entity from all indexes.
func (s *Store) Delete(id triple.EntityID) bool {
	s.pubMu.RLock()
	defer s.pubMu.RUnlock()
	s.mu.Lock()
	old, ok := s.data[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	s.cowIndexLocked()
	delete(s.data, id)
	s.unindexLocked(old)
	s.mu.Unlock()
	s.text.Delete(string(id))
	s.version.Add(1)
	return true
}

func (s *Store) indexLocked(e *triple.Entity, boost float64) {
	for _, t := range e.Triples {
		pred := t.Predicate
		if t.IsComposite() {
			pred = t.Predicate + "." + t.RelPred
		}
		s.cowSetLocked(s.attr, attrKey(pred, normText(t.Object.Text()))).ids[e.ID] = true
		if t.Object.IsRef() {
			s.cowSetLocked(s.reverse, attrKey(pred, string(t.Object.Ref()))).ids[e.ID] = true
		}
	}
	for _, typ := range e.Types() {
		s.cowSetLocked(s.byType, typ).ids[e.ID] = true
	}
	s.boost[e.ID] = boost
}

func (s *Store) unindexLocked(e *triple.Entity) {
	remove := func(m map[string]*idSet, key string, id triple.EntityID) {
		if m[key] == nil {
			return
		}
		set := s.cowSetLocked(m, key)
		delete(set.ids, id)
		if len(set.ids) == 0 {
			delete(m, key)
		}
	}
	for _, t := range e.Triples {
		pred := t.Predicate
		if t.IsComposite() {
			pred = t.Predicate + "." + t.RelPred
		}
		remove(s.attr, attrKey(pred, normText(t.Object.Text())), e.ID)
		if t.Object.IsRef() {
			remove(s.reverse, attrKey(pred, string(t.Object.Ref())), e.ID)
		}
	}
	for _, typ := range e.Types() {
		remove(s.byType, typ, e.ID)
	}
	delete(s.boost, e.ID)
}

// Get returns a copy of the entity, or nil.
func (s *Store) Get(id triple.EntityID) *triple.Entity {
	e := s.GetShared(id)
	if e == nil {
		return nil
	}
	return e.Clone()
}

// GetShared returns the stored record itself, or nil. Stored records are
// immutable after insert (Put stores a private clone), so shared access is
// safe for readers that do not mutate — the query engine's contract.
func (s *Store) GetShared(id triple.EntityID) *triple.Entity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data[id]
}

// Len returns the number of live entities.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// ByAttr returns entities with pred equal (by normalized text) to value.
func (s *Store) ByAttr(pred, value string) []triple.EntityID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return setToSlice(s.attr[attrKey(pred, normText(value))])
}

// ByType returns entities of the given type.
func (s *Store) ByType(typ string) []triple.EntityID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return setToSlice(s.byType[typ])
}

// InRefs returns entities whose predicate references the target (reverse
// traversal).
func (s *Store) InRefs(pred string, target triple.EntityID) []triple.EntityID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return setToSlice(s.reverse[attrKey(pred, string(target))])
}

// SearchText runs ranked token search over names/aliases/descriptions.
func (s *Store) SearchText(query string, k int) []textindex.Hit {
	return s.text.Search(query, k)
}

// Boost returns the entity's ranking boost.
func (s *Store) Boost(id triple.EntityID) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.boost[id]
}

// Snapshot publishes an immutable, version-stamped view of the whole store:
// entity KV, inverted indexes, boosts, and the text index, all captured at
// one write-atomic cut. Taking a snapshot is O(1), not O(|store|) —
// the maps are shared with the live store and copied on the next write to
// them (copy-on-write) — and reads against it take no locks, so serving
// traffic pinned to a snapshot never contends with streaming ingestion.
func (s *Store) Snapshot() *Snapshot {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked captures a snapshot; the caller holds pubMu's write side.
func (s *Store) snapshotLocked() *Snapshot {
	s.snapEpoch++
	return &Snapshot{
		version: s.version.Load(),
		data:    s.data,
		attr:    s.attr,
		reverse: s.reverse,
		byType:  s.byType,
		boost:   s.boost,
		text:    s.text.Snapshot(),
	}
}

// republish captures a snapshot and publishes it as cur in one step under
// pubMu. Captures serialize there and the store version only grows, so cur
// never moves back to an older snapshot when republishers race.
func (s *Store) republish() *Snapshot {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	sn := s.snapshotLocked()
	s.cur.Store(sn)
	return sn
}

// Current returns the latest published snapshot, republishing first if the
// store has advanced past it. The fast path is two atomic loads; the slow
// path costs one snapshot capture (O(1)). Freshness: read-your-writes —
// the snapshot includes every write completed before the call.
func (s *Store) Current() *Snapshot {
	if sn := s.cur.Load(); sn != nil && sn.version == s.version.Load() {
		return sn
	}
	sn := s.republish()
	s.snapAt.Store(time.Now().UnixNano())
	return sn
}

// servingStaleness bounds how far behind the live store a Serving view may
// lag while writes are streaming in.
const servingStaleness = 5 * time.Millisecond

// Serving returns a recent published snapshot with bounded staleness: if
// the current snapshot is younger than servingStaleness it is reused even
// though writes have landed since, so a request-per-snapshot serving tier
// cannot force a republish (and the COW copying the next write pays) per
// request. Under sustained ingestion the views served lag the store by at
// most servingStaleness; an idle store converges to exact. Use Current for
// read-your-writes.
func (s *Store) Serving() *Snapshot {
	sn := s.cur.Load()
	if sn != nil && sn.version == s.version.Load() {
		return sn
	}
	now := time.Now().UnixNano()
	last := s.snapAt.Load()
	if sn != nil && now-last < int64(servingStaleness) {
		return sn
	}
	// One republisher at a time: CAS losers serve the (recent) snapshot the
	// winner is about to replace rather than stacking up captures.
	if !s.snapAt.CompareAndSwap(last, now) {
		if sn := s.cur.Load(); sn != nil {
			return sn
		}
	}
	return s.republish()
}

// Snapshot is an immutable view of a Store frozen at one version: reads are
// lock-free, never observe later writes, and two snapshots at the same
// version have identical content (writes are atomic with the version bump
// under the store's publication gate). Entities returned by GetShared are
// the stored records themselves and must not be mutated.
type Snapshot struct {
	version uint64
	data    map[triple.EntityID]*triple.Entity
	attr    map[string]*idSet
	reverse map[string]*idSet
	byType  map[string]*idSet
	boost   map[triple.EntityID]float64
	text    *textindex.Snapshot
}

// Version implements View: the store version the snapshot is frozen at.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Len implements View.
func (sn *Snapshot) Len() int { return len(sn.data) }

// Get implements View: a private copy of the entity, or nil.
func (sn *Snapshot) Get(id triple.EntityID) *triple.Entity {
	e := sn.GetShared(id)
	if e == nil {
		return nil
	}
	return e.Clone()
}

// GetShared implements View: the stored record itself (read-only), or nil.
func (sn *Snapshot) GetShared(id triple.EntityID) *triple.Entity {
	return sn.data[id]
}

// ByAttr implements View.
func (sn *Snapshot) ByAttr(pred, value string) []triple.EntityID {
	return setToSlice(sn.attr[attrKey(pred, normText(value))])
}

// ByType implements View.
func (sn *Snapshot) ByType(typ string) []triple.EntityID {
	return setToSlice(sn.byType[typ])
}

// InRefs implements View.
func (sn *Snapshot) InRefs(pred string, target triple.EntityID) []triple.EntityID {
	return setToSlice(sn.reverse[attrKey(pred, string(target))])
}

// Boost implements View.
func (sn *Snapshot) Boost(id triple.EntityID) float64 { return sn.boost[id] }

// SearchText implements View: ranked token search frozen at the snapshot.
func (sn *Snapshot) SearchText(query string, k int) []textindex.Hit {
	return sn.text.Search(query, k)
}

func setToSlice(set *idSet) []triple.EntityID {
	if set == nil {
		return nil
	}
	out := make([]triple.EntityID, 0, len(set.ids))
	for id := range set.ids {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func normText(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func docText(e *triple.Entity) string {
	var b strings.Builder
	for _, a := range e.Aliases() {
		b.WriteString(a)
		b.WriteByte(' ')
	}
	if d := e.First("description"); !d.IsNull() {
		b.WriteString(d.Text())
	}
	return b.String()
}
