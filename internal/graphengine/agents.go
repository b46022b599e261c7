package graphengine

import (
	"fmt"
	"io"

	"saga/internal/oplog"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

// encodeEntities frames entity payloads with the CRC-checked record codec:
// one exact-size allocation (a volatile log takes ownership of it), every
// entity encoded in place inside its frame.
func encodeEntities(entities []*triple.Entity) ([]byte, error) {
	return appendEntityFrames(make([]byte, 0, framedLen(entities)), entities)
}

// framedLen returns the exact size of the entities' frames.
func framedLen(entities []*triple.Entity) int {
	n := 0
	for _, e := range entities {
		n += triple.RecordLen(e.EncodedLen())
	}
	return n
}

// appendEntityFrames appends one frame per entity to dst.
func appendEntityFrames(dst []byte, entities []*triple.Entity) (_ []byte, err error) {
	for _, e := range entities {
		if dst, err = appendEntityFrame(dst, e); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendEntityFrame appends e's frame to dst.
func appendEntityFrame(dst []byte, e *triple.Entity) ([]byte, error) {
	frame, mark := triple.BeginRecord(dst)
	frame, err := e.AppendBinary(frame)
	if err != nil {
		return nil, fmt.Errorf("encode entity %s: %w", e.ID, err)
	}
	return triple.EndRecord(frame, mark), nil
}

// decodeEntities decodes an op's payload, iterating its frames in place:
// the returned records are sub-slices of payload.
func decodeEntities(payload []byte) (Payload, error) {
	n := triple.CountRecords(payload)
	p := Payload{Entities: make([]*triple.Entity, 0, n), Records: make([][]byte, 0, n)}
	for {
		rec, rest, err := triple.NextRecord(payload)
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			return Payload{}, err
		}
		e := new(triple.Entity)
		if err := e.UnmarshalBinary(rec); err != nil {
			return Payload{}, err
		}
		p.Entities = append(p.Entities, e)
		p.Records = append(p.Records, rec)
		payload = rest
	}
}

// EntityStoreAgent replays KG updates into the low-latency entity index,
// storing each entity as the frame its payload carries; it never marshals.
type EntityStoreAgent struct {
	Store *entitystore.Store
}

// Name implements Agent.
func (EntityStoreAgent) Name() string { return "entity-store" }

// Apply implements Agent: the payload entities replace their stored
// versions, then op.Deletes are removed; an op with neither (a checkpoint
// marker) is a no-op.
//
// The store keeps entities encoded, and the payload's frames already are —
// a published op's, a logged one's or a restored checkpoint's: each record
// goes to the KV as it is (the decoder accepts canonical encodings only, so
// the bytes are what Put would marshal again).
func (a EntityStoreAgent) Apply(op oplog.Op, p Payload) error {
	for i, e := range p.Entities {
		if err := a.Store.PutEncoded(e.ID, p.Records[i]); err != nil {
			return err
		}
	}
	for _, id := range op.Deletes {
		if _, err := a.Store.Delete(id); err != nil {
			return err
		}
	}
	return nil
}

// GraphAgent replays updates into an in-memory graph replica — the base
// "current KG" the serving refresh, NERD builds and checkpoints read. Readers
// take copy-on-write snapshots of this replica — O(1), so reads neither
// deep-copy the KG nor block replay — or read entities through the replica's
// clone-free shared paths (the records are immutable after Put). It installs
// the records it is handed: a published op's are the KG's own, and recovery
// rebuilds this replica first and starts the KG as its snapshot.
type GraphAgent struct {
	Graph *triple.Graph
}

// Name implements Agent.
func (GraphAgent) Name() string { return "graph-replica" }

// Apply implements Agent: the payload entities are installed, then
// op.Deletes removed. Replayed entities are installed as they are: they are
// frozen and no agent writes to one (Payload's contract), so the replica's
// record can be the payload's own instead of a clone of it.
func (a GraphAgent) Apply(op oplog.Op, p Payload) error {
	for _, e := range p.Entities {
		a.Graph.PutOwned(e)
	}
	for _, id := range op.Deletes {
		a.Graph.Delete(id)
	}
	return nil
}

// FuncAgent adapts a function into an Agent, for prototyping new stores with
// "reasonably small engineering effort" (§3.1).
type FuncAgent struct {
	AgentName string
	Fn        func(op oplog.Op, p Payload) error
}

// Name implements Agent.
func (f FuncAgent) Name() string { return f.AgentName }

// Apply implements Agent.
func (f FuncAgent) Apply(op oplog.Op, p Payload) error {
	if f.Fn == nil {
		return fmt.Errorf("graphengine: FuncAgent %s has no Fn", f.AgentName)
	}
	return f.Fn(op, p)
}
