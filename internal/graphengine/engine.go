// Package graphengine implements the Knowledge Graph Query Engine's data
// lifecycle layer (§3.1, Figure 6): a federated polystore in which the KG
// construction pipeline is the sole producer, ingest operations flow through
// the durable operation log with their entity payloads in the same records,
// and per-store orchestration agents replay operations in order so every
// engine eventually derives its view of the KG from the same base data. The
// paper stages payloads in an object store because its consumers are remote
// stores; every agent here is in-process, so the log is the only durable
// structure. The engine keeps each agent's replay position (LSN) to itself:
// it is where that agent's next CatchUp resumes.
package graphengine

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"saga/internal/oplog"
	"saga/internal/triple"
)

// Agent is one orchestration agent: it encapsulates all store-specific logic
// for applying a KG update to its engine. The rest of the framework is
// generic — onboarding a new storage engine means implementing this
// interface and registering it (§3.1's extensibility goal).
type Agent interface {
	// Name identifies the agent in replay errors.
	Name() string
	// Apply replays one operation with its decoded payload (the zero
	// Payload for operations without one).
	Apply(op oplog.Op, p Payload) error
}

// Payload is an operation's entity payload as replay hands it to agents:
// the records PublishOp was given and the frames it encoded them into, or,
// for an op published before the previous CatchUp began (recovery, a late
// agent, an agent that stopped on an error), the same decoded from the op's
// log record; for Restore's synthetic op, the checkpoint's entities and
// frames. Either way it is shared by every agent, so it is read-only: an
// agent may retain the entities and hand them to a store that takes
// ownership without copying (Graph.PutOwned), but must not mutate them;
// record bytes alias a log record or a checkpoint and must be copied to be
// kept.
// See docs/INVARIANTS.md#cow-shared-records.
type Payload struct {
	// Entities are the op's entities, in payload order (entity i is
	// op.EntityIDs[i]; docs/INVARIANTS.md#payload-frame-alignment).
	Entities []*triple.Entity
	// Records[i] is the canonical binary encoding of Entities[i], for
	// stores that keep entities encoded; set whenever Entities is.
	Records [][]byte
}

// Engine wires the log and the agents into the polystore coordinator.
//
// Publish ordering contract: operations take effect in LSN order, and LSNs
// are assigned in Publish/PublishOp call order (the log serializes
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
	Log *oplog.Log

	mu     sync.RWMutex
	agents []*replayer

	// catchupMu serializes CatchUp and Restore: agent Apply methods and the
	// per-agent LSN bookkeeping assume one replayer at a time.
	catchupMu sync.Mutex

	// handed holds the payloads PublishOp appended since the last CatchUp
	// began, by LSN.
	handMu sync.Mutex
	handed map[uint64]Payload
}

// replayer is a registered agent and the LSN it has replayed through
// (written under catchupMu).
type replayer struct {
	Agent
	lsn uint64
}

// New constructs an engine over the given log.
func New(log *oplog.Log) *Engine {
	return &Engine{Log: log}
}

// RegisterAgent adds an orchestration agent; its replay position starts at 0,
// so the next CatchUp replays the full log into it.
func (e *Engine) RegisterAgent(a Agent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.agents = append(e.agents, &replayer{Agent: a})
}

// replayers returns the registered agents, in registration order.
func (e *Engine) replayers() []*replayer {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.Clone(e.agents)
}

// Publish appends an operation of the given kind with the entity payload to
// the log and returns the assigned LSN.
func (e *Engine) Publish(kind oplog.OpKind, source string, entities []*triple.Entity) (uint64, error) {
	return e.PublishOp(oplog.Op{Kind: kind, Source: source}, entities)
}

// PublishOp appends a caller-built operation (which may already carry link
// deltas or other metadata) to the log with the entities' frames in its
// record — one durable write — and returns the assigned LSN. The op's
// EntityIDs and LSN are filled here; everything else passes through.
//
// The entities are frozen from the call on: the next CatchUp hands these
// very records to every agent (Payload's terms). The platform passes KG
// records read through GetShared, which copy-on-write already freezes.
func (e *Engine) PublishOp(op oplog.Op, entities []*triple.Entity) (uint64, error) {
	payload, err := encodeEntities(entities)
	if err != nil {
		return 0, fmt.Errorf("graphengine: encode payload: %w", err)
	}
	op.EntityIDs = op.EntityIDs[:0]
	handed, rest := Payload{Entities: entities, Records: make([][]byte, len(entities))}, payload
	for i, ent := range entities {
		op.EntityIDs = append(op.EntityIDs, ent.ID)
		handed.Records[i], rest, _ = triple.NextRecord(rest) // the frames just encoded
	}
	lsn, err := e.Log.Append(op, payload)
	if err != nil {
		return 0, fmt.Errorf("graphengine: append op: %w", err)
	}
	if len(entities) > 0 {
		e.handMu.Lock()
		if e.handed == nil {
			e.handed = make(map[uint64]Payload)
		}
		e.handed[lsn] = handed
		e.handMu.Unlock()
	}
	return lsn, nil
}

// CatchUp replays pending operations into every agent, on the caller's
// goroutine, and advances each agent's replay position. Replay is
// one op-major loop over the log suffix past the slowest agent, applying
// each op to every agent that needs it in registration order. An op
// published since the last CatchUp began goes to the agents with the
// payload PublishOp kept; any other op's payload is read from the log and
// decoded at most once, and only if some live agent still needs it.
// Payloads kept for ops no agent needs are dropped. Either payload is
// read-only for every agent, so sharing it (and letting an agent keep it) is
// safe.
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
	agents := e.replayers()
	if len(agents) == 0 {
		return nil
	}
	from := slices.MinFunc(agents, func(a, b *replayer) int { return cmp.Compare(a.lsn, b.lsn) }).lsn
	stopped := make([]bool, len(agents))
	var firstErr error
	for _, op := range e.Log.Read(from, 0) {
		var (
			p       Payload
			loadErr error
			loaded  bool
		)
		for i, a := range agents {
			if stopped[i] || a.lsn >= op.LSN {
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
			a.lsn = op.LSN
		}
	}
	return firstErr
}

// payloadOf returns op's payload: the one handed over when there is one,
// else the frames of its log record, read and decoded.
func (e *Engine) payloadOf(op oplog.Op, handed map[uint64]Payload) (Payload, error) {
	if p, ok := handed[op.LSN]; ok || len(op.EntityIDs) == 0 {
		return p, nil
	}
	frames, err := e.Log.Payload(op.LSN)
	if err != nil {
		return Payload{}, err
	}
	return decodeEntities(frames)
}

// Restore primes every registered agent with checkpoint state instead of a
// from-zero replay. op is the checkpoint as one synthetic upsert: its LSN is
// the watermark, its Links the link table there, and p the checkpoint's
// entities with their frames (op.EntityIDs is filled here, in payload
// order). Every agent applies op as it would a logged upsert and has its
// LSN pinned to the watermark, so the next CatchUp replays only the suffix.
// p is shared by every agent under Payload's terms (read-only, retainable).
// Callers invoke Restore once, after registering agents and before the first
// CatchUp.
func (e *Engine) Restore(op oplog.Op, p Payload) error {
	e.catchupMu.Lock()
	defer e.catchupMu.Unlock()
	op.EntityIDs = make([]triple.EntityID, len(p.Entities))
	for i, ent := range p.Entities {
		op.EntityIDs[i] = ent.ID
	}
	for _, a := range e.replayers() {
		if err := a.Apply(op, p); err != nil {
			return fmt.Errorf("graphengine: restore agent %s: %w", a.Name(), err)
		}
		a.lsn = op.LSN
	}
	return nil
}
