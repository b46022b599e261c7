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
// Serving reads go through versioned immutable snapshots (Store.Current,
// Store.Serving), and only through them: the store publishes a
// copy-on-write view of every index at its current version, so query
// evaluation never takes the store's lock and never contends with
// streaming ingestion. See Snapshot for the contract.
package live

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saga/internal/pmap"
	"saga/internal/store/textindex"
	"saga/internal/triple"
)

// record is one entity KV entry: the stored (immutable) record and its
// ranking boost (entity importance), which text search scores with too.
type record struct {
	e     *triple.Entity
	boost float64
}

// postings maps an index key to the set of entities posted under it.
type postings = pmap.Map[string, pmap.Map[triple.EntityID, struct{}]]

// indexes are the entity KV and the inverted indexes: persistent ordered
// maps (internal/pmap), so a copy of this struct is a snapshot once the
// store writes under a fresh owner, and the first write after it copies
// only the tree nodes on its keys' paths.
type indexes struct {
	data    pmap.Map[triple.EntityID, record] // ID -> stored record and boost
	attr    postings                          // predicate\x1fvalueText -> entity set (equality lookups)
	reverse postings                          // predicate\x1ftargetID -> source entity set (in() walks)
	byType  postings                          // entity type -> entity set
}

// Store is the live KG index: a graph KV store plus inverted indexes
// optimized for low-latency retrieval under concurrent requests. All methods
// are safe for concurrent use. One lock serializes writes and snapshot
// captures; reads go through published snapshots (Current, Serving) and take
// no lock at all.
type Store struct {
	// mu serializes every write (entity KV, inverted indexes, text index,
	// stable-view bookkeeping, version bump) and every snapshot capture, so
	// a snapshot is always a write-atomic cut: a store version uniquely
	// identifies index content.
	mu    sync.Mutex
	owner *pmap.Owner // replaced at every snapshot capture
	indexes
	// text is the token index over entity names/aliases used by search().
	text *textindex.Index
	// stable maps each ID of the last stable view loaded to the number of
	// that load (loads counts them), so the next load deletes the IDs it
	// does not renumber.
	stable map[triple.EntityID]uint64
	loads  uint64

	// version increments on every write that changes the store (once per
	// write, however many entities it touches); query caches use it to
	// invalidate. Written under mu, read lock-free by Current and Serving.
	version atomic.Uint64

	// cur is the most recently published snapshot; Current revalidates it
	// against version and republishes when stale. snapAt records when it
	// was captured (unix nanos) so Serving can bound republish frequency.
	cur    atomic.Pointer[Snapshot]
	snapAt atomic.Int64
}

// Version returns a counter that increments on every write that changes the
// store, letting query result caches detect staleness cheaply.
func (s *Store) Version() uint64 { return s.version.Load() }

// NewStore constructs an empty live store.
func NewStore() *Store {
	return &Store{
		owner:  new(pmap.Owner),
		text:   textindex.New(),
		stable: make(map[triple.EntityID]uint64),
	}
}

func attrKey(pred, valText string) string { return pred + "\x1f" + valText }

// Put indexes (replacing) an entity: KV payload, attribute postings, reverse
// reference postings, type sets, and the token index. Streaming updates call
// Put at high frequency. The stored record is a private clone and is never
// mutated afterwards, which is what lets snapshots hand it out without
// copying.
func (s *Store) Put(e *triple.Entity, boost float64) {
	clone := e.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installLocked(clone, boost)
	s.version.Add(1)
}

// update replaces the stored record under id with an edited copy as one
// write: it clones the record, applies edit to the clone and stores it with
// the entity's boost. It reports false, and writes nothing, when id is not
// stored. Curation hot fixes write through update, so a stable load cannot
// land between reading the record and storing its edit.
func (s *Store) update(id triple.EntityID, edit func(e *triple.Entity)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.data.Get(id)
	if !ok {
		return false
	}
	e := old.e.Clone()
	edit(e)
	s.installLocked(e, old.boost)
	s.version.Add(1)
	return true
}

// Delete removes an entity from all indexes.
func (s *Store) Delete(id triple.EntityID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.deleteLocked(id) {
		return false
	}
	s.version.Add(1)
	return true
}

// loadStable applies a whole stable view as one write: it installs each
// record whose pointer differs from the one stored under its ID (new,
// replaced, or overwritten since by a curation hot fix), updates only the
// boost where the record is unchanged and its boost moved, skips the rest,
// and deletes the IDs the previous view had and this one lacks. The store
// version moves once, and only if something changed, so a load the store
// already holds keeps every cached result keyed on the version. The result
// equals Putting every entity and deleting the dropped IDs, except that the
// store keeps the records themselves.
//
//saga:owns the stable view's records are the graph replica's frozen records; the store holds them as they are (docs/INVARIANTS.md#cow-shared-records)
func (s *Store) loadStable(entities []*triple.Entity, boosts map[triple.EntityID]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	changed := false
	for _, e := range entities {
		s.stable[e.ID] = s.loads
		boost := boosts[e.ID]
		switch old, _ := s.data.Get(e.ID); {
		case old.e != e:
			s.installLocked(e, boost)
		case old.boost != boost:
			s.data.Set(s.owner, e.ID, record{e, boost})
		default:
			continue
		}
		changed = true
	}
	for id, load := range s.stable {
		if load != s.loads {
			delete(s.stable, id)
			changed = s.deleteLocked(id) || changed
		}
	}
	if changed {
		s.version.Add(1)
	}
}

// installLocked stores e itself under its ID, replacing and unindexing the
// record held there, and indexes it everywhere, the token index included.
// From here on e is frozen. Caller holds s.mu.
func (s *Store) installLocked(e *triple.Entity, boost float64) {
	if old, ok := s.data.Get(e.ID); ok {
		s.postLocked(old.e, false)
	}
	s.data.Set(s.owner, e.ID, record{e, boost})
	s.postLocked(e, true)
	s.text.Put(string(e.ID), docText(e))
}

// deleteLocked removes id from every index, reporting whether it was stored.
// Caller holds s.mu.
func (s *Store) deleteLocked(id triple.EntityID) bool {
	old, ok := s.data.Delete(s.owner, id)
	if ok {
		s.postLocked(old.e, false)
		s.text.Delete(string(id))
	}
	return ok
}

// postLocked adds e to, or with add false removes it from, every posting
// set it belongs in. Caller holds s.mu.
func (s *Store) postLocked(e *triple.Entity, add bool) {
	post := func(m *postings, key string) {
		if add {
			pmap.SetIn(s.owner, m, key, e.ID, struct{}{})
		} else {
			pmap.DeleteIn(s.owner, m, key, e.ID)
		}
	}
	for _, t := range e.Triples {
		pred := t.Predicate
		if t.IsComposite() {
			pred = t.Predicate + "." + t.RelPred
		}
		post(&s.attr, attrKey(pred, normText(t.Object.Text())))
		if t.Object.IsRef() {
			post(&s.reverse, attrKey(pred, string(t.Object.Ref())))
		}
	}
	for _, typ := range e.Types() {
		post(&s.byType, typ)
	}
}

// Snapshot publishes an immutable, version-stamped view of the whole store:
// entity KV, inverted indexes, boosts, and the text index, all captured at
// one write-atomic cut. Taking a snapshot is O(1), not O(|store|) — it
// takes the trees' headers, and the next write copies only the nodes on its
// path — and reads against it take no locks, so serving traffic pinned to a
// snapshot never contends with streaming ingestion.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked captures a snapshot. Caller holds s.mu.
func (s *Store) snapshotLocked() *Snapshot {
	s.owner = new(pmap.Owner)
	return &Snapshot{version: s.version.Load(), indexes: s.indexes, text: s.text.Snapshot()}
}

// republish captures a snapshot and publishes it as cur in one step under
// s.mu. Captures serialize there and the store version only grows, so cur
// never moves back to an older snapshot when republishers race.
func (s *Store) republish() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
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
// cannot force a republish per request. A republish takes the store lock,
// which writers hold too, and freezes the trees, so the next write copies
// the nodes on its paths again. Under sustained ingestion the views served
// lag the store by at most servingStaleness; an idle store converges to
// exact. Use Current for read-your-writes.
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
// under the store's lock). Entities returned by GetShared are the stored
// records themselves and must not be mutated.
type Snapshot struct {
	version uint64
	indexes
	text *textindex.Snapshot
}

// Version is the store version the snapshot is frozen at; it moves forward
// with every write that changes the store, so result caches key on it for
// exact invalidation.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Len returns the number of live entities.
func (sn *Snapshot) Len() int { return sn.data.Len() }

// GetShared returns the stored record itself (read-only), or nil.
func (sn *Snapshot) GetShared(id triple.EntityID) *triple.Entity {
	r, _ := sn.data.Get(id)
	return r.e
}

// ByAttr returns entities with pred equal (by normalized text) to value.
func (sn *Snapshot) ByAttr(pred, value string) []triple.EntityID {
	return setToSlice(sn.attr, attrKey(pred, normText(value)))
}

// ByType returns entities of the given type.
func (sn *Snapshot) ByType(typ string) []triple.EntityID {
	return setToSlice(sn.byType, typ)
}

// InRefs returns entities whose predicate references the target (reverse
// traversal).
func (sn *Snapshot) InRefs(pred string, target triple.EntityID) []triple.EntityID {
	return setToSlice(sn.reverse, attrKey(pred, string(target)))
}

// Boost returns the entity's ranking boost.
func (sn *Snapshot) Boost(id triple.EntityID) float64 {
	r, _ := sn.data.Get(id)
	return r.boost
}

// SearchText runs ranked token search over names/aliases/descriptions: BM25
// scaled by 1 + the entity's boost.
func (sn *Snapshot) SearchText(query string, k int) []textindex.Hit {
	return sn.text.Search(query, k, func(id string) float64 { return 1 + sn.Boost(triple.EntityID(id)) })
}

// setToSlice lists the IDs posted under key, in ID order; nil when none.
func setToSlice(m postings, key string) []triple.EntityID {
	set, ok := m.Get(key)
	if !ok {
		return nil
	}
	return set.Keys()
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
