// Package graphengine implements the Knowledge Graph Query Engine's data
// lifecycle layer (§3.1, Figure 6): a federated polystore in which the KG
// construction pipeline is the sole producer, ingest operations flow through
// the durable operation log with their entity payloads in the same records,
// and per-store orchestration agents replay operations in order so every
// engine eventually derives its view of the KG from the same base data. The
// paper stages payloads in an object store because its consumers are remote
// stores; every agent here is in-process, so the log is the only durable
// structure, and a checkpoint compacts it to one base op holding the state
// at its head (Engine.Checkpoint): recovery is one CatchUp from genesis. The
// engine keeps each agent's replay position (LSN) to itself: it is where
// that agent's next CatchUp resumes.
package graphengine

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"

	"saga/internal/oplog"
	"saga/internal/pmap"
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
// agent, an agent that stopped on an error — and always for a checkpoint's
// base op), the same decoded from the op's log record. Either way it is
// shared by every agent, so it is read-only: an agent may retain the
// entities and hand them to a store that takes ownership without copying
// (Graph.PutOwned), but must not mutate them; record bytes alias a log
// record and must be copied to be kept.
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

	// catchupMu serializes CatchUp and Checkpoint: agent Apply methods and
	// the per-agent LSN bookkeeping assume one replayer at a time, and a
	// checkpoint needs every agent at the log's head.
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
	e.handMu.Lock()
	if e.handed == nil {
		e.handed = make(map[uint64]Payload)
	}
	e.handed[lsn] = handed
	e.handMu.Unlock()
	return lsn, nil
}

// CatchUp replays pending operations into every agent, on the caller's
// goroutine, and advances each agent's replay position. Replay is
// one op-major loop over the log suffix past the slowest agent, applying
// each op to every agent that needs it in registration order. An op
// published since the last CatchUp began goes to the agents with the
// payload PublishOp kept; any other op (the base's header lives only in its
// record) is read back and decoded at most once, if some agent needs it.
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
				op, p, loadErr = e.load(op, handed)
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

// load returns op with its payload: the one handed over when there is one,
// else the op and its frames read back from its record and decoded. A
// decoded payload must hold the entities op lists, in its order
// (docs/INVARIANTS.md#payload-frame-alignment).
func (e *Engine) load(op oplog.Op, handed map[uint64]Payload) (oplog.Op, Payload, error) {
	if p, ok := handed[op.LSN]; ok {
		return op, p, nil
	}
	loaded, frames, err := e.Log.Load(op.LSN)
	if err != nil {
		return op, Payload{}, err
	}
	op = loaded
	p, err := decodeEntities(frames)
	if err != nil {
		return op, Payload{}, err
	}
	if len(p.Entities) != len(op.EntityIDs) {
		return op, Payload{}, fmt.Errorf("payload holds %d entities where the op lists %d", len(p.Entities), len(op.EntityIDs))
	}
	for i, ent := range p.Entities {
		if ent.ID != op.EntityIDs[i] {
			return op, Payload{}, fmt.Errorf("payload frame %d holds %s where the op lists %s", i, ent.ID, op.EntityIDs[i])
		}
	}
	return op, p, nil
}

// Checkpoint compacts the log to one op, the base, at its last LSN W: links
// is the link table at W, frozen (its writer moved to a fresh owner), and g
// a graph holding every entity live at W (the graph replica). The base's
// entity IDs and frames stream from two walks of one O(1) snapshot of g, the
// frames through one reused scratch buffer, and its links from links in
// source order, as the record log writes it: what a checkpoint allocates
// does not grow with the graph or the link table, and nothing of the base
// stays in memory. Recovery is then one CatchUp from genesis: the base, then
// the ops appended since.
//
// Every agent must have replayed to W (the platform checkpoints right after
// a CatchUp, on the log's only appender); Checkpoint holds the CatchUp lock
// and refuses otherwise. Payloads still waiting to be handed over at or
// below W are dropped: an agent registered later replays the base instead.
func (e *Engine) Checkpoint(links pmap.Map[triple.EntityID, triple.EntityID], g *triple.Graph) (uint64, error) {
	e.catchupMu.Lock()
	defer e.catchupMu.Unlock()
	w := e.Log.LastLSN()
	for _, a := range e.replayers() {
		if a.lsn < w {
			return 0, fmt.Errorf("graphengine: checkpoint at lsn %d: agent %s has replayed only to %d", w, a.Name(), a.lsn)
		}
	}
	snap := g.Snapshot()
	err := e.Log.Compact(oplog.Base{
		LSN: w,
		N:   snap.Len(),
		IDs: func(yield func(triple.EntityID) bool) {
			snap.RangeShared(func(ent *triple.Entity) bool { return yield(ent.ID) })
		},
		Links: links,
		Frames: func(out io.Writer) error {
			var frame []byte
			var err error
			snap.RangeShared(func(ent *triple.Entity) bool {
				if frame, err = appendEntityFrame(frame[:0], ent); err != nil {
					err = fmt.Errorf("graphengine: checkpoint: %w", err)
					return false
				}
				_, err = out.Write(frame)
				return err == nil
			})
			return err
		},
	})
	if err != nil {
		return 0, err
	}
	e.handMu.Lock()
	maps.DeleteFunc(e.handed, func(lsn uint64, _ Payload) bool { return lsn <= w })
	e.handMu.Unlock()
	return w, nil
}
