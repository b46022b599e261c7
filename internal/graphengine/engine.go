// Package graphengine implements the Knowledge Graph Query Engine's data
// lifecycle layer (§3.1, Figure 6): a federated polystore in which the KG
// construction pipeline is the sole producer, payloads are staged in a
// high-throughput object store, ingest operations flow through the durable
// operation log, and per-store orchestration agents replay operations in
// order so every engine eventually derives its view of the KG from the same
// base data. Agents track their replay progress (LSN) in a metadata store,
// from which consumers read store freshness.
package graphengine

import (
	"fmt"
	"slices"
	"sync"

	"saga/internal/oplog"
	"saga/internal/storage"
	"saga/internal/triple"
)

// ObjectStore is the staging store for ingest payloads: a durable,
// high-throughput blob store keyed by staging key — write once, read by any
// agent, delete after retention. It is the storage.BlobStore role; the
// in-memory store serves tests and volatile platforms, the disk medium's
// segment store persists payloads so a durable operation log can be replayed
// after a restart.
type ObjectStore = storage.BlobStore

// memObjectStore is the in-memory staging store: a map of payloads under a
// RWMutex, with sequential key generation.
type memObjectStore struct {
	mu   sync.RWMutex
	data map[string][]byte
	seq  uint64
}

// NewObjectStore constructs an empty in-memory staging store.
func NewObjectStore() ObjectStore {
	return &memObjectStore{data: make(map[string][]byte)}
}

// Stage implements storage.BlobStore.
func (s *memObjectStore) Stage(payload []byte) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	key := fmt.Sprintf("staging/%08d", s.seq)
	s.data[key] = payload
	return key, nil
}

// Get implements storage.BlobStore.
func (s *memObjectStore) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	p, ok := s.data[key]
	s.mu.RUnlock()
	return p, ok
}

// Delete implements storage.BlobStore.
func (s *memObjectStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	return nil
}

// Len implements storage.BlobStore.
func (s *memObjectStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Close implements storage.BlobStore.
func (s *memObjectStore) Close() error { return nil }

// Agent is one orchestration agent: it encapsulates all store-specific logic
// for applying a KG update to its engine. The rest of the framework is
// generic — onboarding a new storage engine means implementing this
// interface and registering it (§3.1's extensibility goal).
type Agent interface {
	// Name identifies the agent in the metadata store.
	Name() string
	// Apply replays one operation with its decoded staged payload (the zero
	// Payload for operations without one, such as deletes or checkpoints).
	Apply(op oplog.Op, p Payload) error
}

// Payload is an operation's staged payload as replay hands it to agents:
// the records PublishOp was given and the frames it encoded them into, or,
// for an op published before the previous CatchUp began (recovery, a late
// agent, an agent that stopped on an error), the same decoded from staging.
// Either way it is shared by every agent, so it is read-only: an agent may
// retain the entities and hand them to a store that takes ownership without
// copying (Graph.PutOwned), but must not mutate them; record bytes alias a
// staged payload and must be copied to be kept.
// See docs/INVARIANTS.md#cow-shared-records.
type Payload struct {
	// Entities are the op's entities, in payload order (entity i is
	// op.EntityIDs[i]; docs/INVARIANTS.md#payload-frame-alignment).
	Entities []*triple.Entity
	// Records[i] is the canonical binary encoding of Entities[i], for
	// stores that keep entities encoded. Nil when the payload did not come
	// off the log (Restore's checkpoint entities).
	Records [][]byte
}

// MetadataStore tracks each agent's replayed LSN; consumers read a store's
// freshness from it ("serving at least KG version X").
type MetadataStore struct {
	mu   sync.RWMutex
	lsns map[string]uint64
}

// NewMetadataStore constructs an empty metadata store.
func NewMetadataStore() *MetadataStore {
	return &MetadataStore{lsns: make(map[string]uint64)}
}

// SetLSN records that the agent replayed through the LSN.
func (m *MetadataStore) SetLSN(agent string, lsn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lsns[agent] = lsn
}

// LSN returns the agent's replayed LSN.
func (m *MetadataStore) LSN(agent string) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lsns[agent]
}

// MinLSN returns the minimum replayed LSN across agents: the KG version every
// store is guaranteed to serve.
func (m *MetadataStore) MinLSN() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	first := true
	var min uint64
	for _, lsn := range m.lsns {
		if first || lsn < min {
			min, first = lsn, false
		}
	}
	return min
}

// Engine wires the log, staging store, metadata store, and agents into the
// polystore coordinator.
//
// Publish ordering contract: operations take effect in LSN order, and LSNs
// are assigned in Publish/PublishDelete call order (the log serializes
// appends). The engine does not reorder or deduplicate — whoever calls
// Publish concurrently gets whatever interleaving the log's lock produced.
// The platform therefore routes every publish through a single producer at a
// time: either a synchronous consume call or the standing feed's ordered
// publisher goroutine, never both (with a feed open, synchronous consumes
// are routed through it, and the remaining direct producers — checkpoint
// and curation — drain it first and take the same publish turn).
//
// Replay runs on whichever goroutine calls CatchUp, one op at a time into
// every agent; the engine starts no goroutines. CatchUp is serialized
// internally, so a replay triggered from one goroutine can never
// double-apply operations racing a replay from another.
type Engine struct {
	Log      *oplog.Log
	Staging  ObjectStore
	Metadata *MetadataStore

	mu     sync.RWMutex
	agents []Agent

	// catchupMu serializes CatchUp: agent Apply methods and the per-agent
	// LSN bookkeeping assume one replayer at a time.
	catchupMu sync.Mutex

	// handed holds the payloads PublishOp appended since the last CatchUp
	// began, by staging key (a compaction's rewritten op has a new one).
	handMu sync.Mutex
	handed map[string]Payload
}

// New constructs an engine over the given log with in-memory staging.
func New(log *oplog.Log) *Engine {
	return NewWithStaging(log, NewObjectStore())
}

// NewWithStaging constructs an engine with an explicit staging store; pair a
// durable log with a durable staging store (disk.OpenSegmentBlobStore) so
// replay survives restarts.
func NewWithStaging(log *oplog.Log, staging ObjectStore) *Engine {
	return &Engine{Log: log, Staging: staging, Metadata: NewMetadataStore()}
}

// RegisterAgent adds an orchestration agent; its replay position starts at 0,
// so the next CatchUp replays the full log into it.
func (e *Engine) RegisterAgent(a Agent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.agents = append(e.agents, a)
	e.Metadata.SetLSN(a.Name(), 0)
}

// Agents returns the registered agent names.
func (e *Engine) Agents() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, len(e.agents))
	for i, a := range e.agents {
		out[i] = a.Name()
	}
	return out
}

// Publish stages the entity payload, appends the operation to the log, and
// returns the assigned LSN. It is the single write path into the polystore:
// construction publishes upserts, deletes, partition overwrites, curation
// fixes, and checkpoints through it.
func (e *Engine) Publish(kind oplog.OpKind, source string, entities []*triple.Entity) (uint64, error) {
	return e.PublishOp(oplog.Op{Kind: kind, Source: source}, entities)
}

// PublishOp stages the entity payload for a caller-built operation (which
// may already carry link deltas or other metadata), appends it to the log,
// and returns the assigned LSN. The op's StagingKey, EntityIDs, LSN, and
// Time are filled here; everything else passes through.
//
// The entities are frozen from the call on: the next CatchUp hands these
// very records to every agent (Payload's terms). The platform passes KG
// records read through GetShared, which copy-on-write already freezes.
func (e *Engine) PublishOp(op oplog.Op, entities []*triple.Entity) (uint64, error) {
	var handed Payload
	if len(entities) > 0 {
		payload, err := encodeEntities(entities)
		if err != nil {
			return 0, fmt.Errorf("graphengine: encode payload: %w", err)
		}
		key, err := e.Staging.Stage(payload)
		if err != nil {
			return 0, fmt.Errorf("graphengine: stage payload: %w", err)
		}
		op.StagingKey = key
		op.EntityIDs = op.EntityIDs[:0]
		for _, ent := range entities {
			op.EntityIDs = append(op.EntityIDs, ent.ID)
		}
		handed = Payload{Entities: entities, Records: make([][]byte, len(entities))}
		for i := range handed.Records {
			handed.Records[i], payload, _ = triple.NextRecord(payload) // the frames just encoded
		}
	}
	lsn, err := e.Log.Append(op)
	if err != nil {
		return 0, fmt.Errorf("graphengine: append op: %w", err)
	}
	if handed.Entities != nil {
		e.handMu.Lock()
		if e.handed == nil {
			e.handed = make(map[string]Payload)
		}
		e.handed[op.StagingKey] = handed
		e.handMu.Unlock()
	}
	return lsn, nil
}

// PublishDelete appends a delete operation for the given entities.
func (e *Engine) PublishDelete(source string, ids []triple.EntityID) (uint64, error) {
	return e.Log.Append(oplog.Op{Kind: oplog.OpDelete, Source: source, EntityIDs: ids})
}

// CatchUp replays pending operations into every agent, on the caller's
// goroutine, and advances each agent's LSN in the metadata store. Replay is
// one op-major loop over the log suffix past the slowest agent, applying
// each op to every agent that needs it in registration order. An op
// published since the last CatchUp began goes to the agents with the
// payload PublishOp kept; any other op's staged payload is read and decoded
// at most once, and only if some live agent still needs it. Payloads kept
// for ops no agent needs are dropped. Either payload is read-only for every
// agent, so sharing it (and letting an agent keep it) is safe.
//
// Error isolation is per agent: an agent that fails stops at its recorded
// LSN (and resumes from there on the next CatchUp, so transient store errors
// heal without data loss) while the other agents keep replaying — stores
// degrade independently, never inconsistently. The returned error is the
// first one met, which is the failure at the lowest LSN, ties broken by
// agent registration order. CatchUp is safe for concurrent use: calls
// serialize, so two replayers can never apply the same operation to an agent
// twice.
func (e *Engine) CatchUp() error {
	e.catchupMu.Lock()
	defer e.catchupMu.Unlock()
	// Taken before the log is read: every op handed here is in the read.
	e.handMu.Lock()
	handed := e.handed
	e.handed = nil
	e.handMu.Unlock()
	e.mu.RLock()
	agents := append([]Agent(nil), e.agents...)
	e.mu.RUnlock()
	if len(agents) == 0 {
		return nil
	}
	from := make([]uint64, len(agents))
	for i, a := range agents {
		from[i] = e.Metadata.LSN(a.Name())
	}
	stopped := make([]bool, len(agents))
	var firstErr error
	for _, op := range e.Log.Read(slices.Min(from), 0) {
		var (
			p       Payload
			loadErr error
			loaded  bool
		)
		for i, a := range agents {
			if stopped[i] || from[i] >= op.LSN {
				continue
			}
			if !loaded {
				p, loadErr = e.payloadOf(op, handed)
				loaded = true
			}
			err := loadErr
			if err == nil {
				err = a.Apply(op, p)
			}
			if err != nil {
				stopped[i] = true
				if firstErr == nil {
					firstErr = fmt.Errorf("graphengine: agent %s at lsn %d: %w", a.Name(), op.LSN, err)
				}
				continue
			}
			e.Metadata.SetLSN(a.Name(), op.LSN)
		}
	}
	return firstErr
}

// payloadOf returns op's payload: the one handed over when there is one,
// else the staged payload, read and decoded.
func (e *Engine) payloadOf(op oplog.Op, handed map[string]Payload) (Payload, error) {
	if p, ok := handed[op.StagingKey]; ok || op.StagingKey == "" {
		return p, nil
	}
	payload, ok := e.Staging.Get(op.StagingKey)
	if !ok {
		return Payload{}, fmt.Errorf("staged payload %s missing", op.StagingKey)
	}
	return decodeEntities(payload)
}

// Replay streams every op with LSN > after to fn, decoding each staged
// payload once; fn is the payload's only holder, under the same terms as an
// agent's Apply. Recovery uses it to re-apply the log suffix past a
// checkpoint watermark into the construction KG (agents replay separately,
// through CatchUp).
func (e *Engine) Replay(after uint64, fn func(op oplog.Op, p Payload) error) error {
	for _, op := range e.Log.Read(after, 0) {
		p, err := e.payloadOf(op, nil)
		if err != nil {
			return fmt.Errorf("graphengine: replay lsn %d: %w", op.LSN, err)
		}
		if err := fn(op, p); err != nil {
			return err
		}
	}
	return nil
}

// Restore primes every registered agent with checkpoint state instead of a
// from-zero replay: each agent applies the restored entities as one synthetic
// upsert, deletes any stale keys (entities a durable store retains that the
// checkpoint does not — e.g. a delete op at or below the watermark that the
// store had not yet applied when the process died), and has its LSN pinned
// to the watermark so the next CatchUp replays only the suffix. The entities
// are shared by every agent under Payload's terms (read-only, retainable).
// Callers invoke Restore once, after registering agents and before the first
// CatchUp.
func (e *Engine) Restore(w uint64, entities []*triple.Entity, stale []triple.EntityID) error {
	e.catchupMu.Lock()
	defer e.catchupMu.Unlock()
	e.mu.RLock()
	agents := append([]Agent(nil), e.agents...)
	e.mu.RUnlock()
	upsert := oplog.Op{LSN: w, Kind: oplog.OpUpsert, Source: "recovery", EntityIDs: make([]triple.EntityID, len(entities))}
	for i, ent := range entities {
		upsert.EntityIDs[i] = ent.ID
	}
	for _, a := range agents {
		if len(entities) > 0 {
			if err := a.Apply(upsert, Payload{Entities: entities}); err != nil {
				return fmt.Errorf("graphengine: restore agent %s: %w", a.Name(), err)
			}
		}
		if len(stale) > 0 {
			op := oplog.Op{LSN: w, Kind: oplog.OpDelete, Source: "recovery", EntityIDs: stale}
			if err := a.Apply(op, Payload{}); err != nil {
				return fmt.Errorf("graphengine: restore agent %s: %w", a.Name(), err)
			}
		}
		e.Metadata.SetLSN(a.Name(), w)
	}
	return nil
}

// Freshness reports how many operations an agent is behind the log head.
func (e *Engine) Freshness(agent string) (behind uint64) {
	head := e.Log.LastLSN()
	at := e.Metadata.LSN(agent)
	if head < at {
		return 0
	}
	return head - at
}
