package graphengine

import (
	"fmt"
	"io"

	"saga/internal/oplog"
	"saga/internal/store/entitystore"
	"saga/internal/triple"
)

// encodeEntities frames entity payloads with the CRC-checked record codec:
// one exact-size allocation (the staging store takes ownership of it), every
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
func appendEntityFrames(dst []byte, entities []*triple.Entity) ([]byte, error) {
	for _, e := range entities {
		frame, mark := triple.BeginRecord(dst)
		frame, err := e.AppendBinary(frame)
		if err != nil {
			return nil, fmt.Errorf("encode entity %s: %w", e.ID, err)
		}
		dst = triple.EndRecord(frame, mark)
	}
	return dst, nil
}

// decodeEntities decodes a staged payload, iterating its frames in place:
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

// EntityStoreAgent replays KG updates into the low-latency entity index.
type EntityStoreAgent struct {
	Store *entitystore.Store
}

// Name implements Agent.
func (EntityStoreAgent) Name() string { return "entity-store" }

// Apply implements Agent: upserts and overwrites replace payload entities;
// deletes remove them; checkpoints and unknown kinds are no-ops (agents must
// tolerate new operation kinds for extensibility).
//
// The store keeps entities encoded, and the log's frames already are: a
// replayed record goes to the KV as it is (the decoder accepts canonical
// encodings only, so the bytes are what Put would marshal again).
func (a EntityStoreAgent) Apply(op oplog.Op, p Payload) error {
	switch op.Kind {
	case oplog.OpUpsert, oplog.OpOverwritePartition, oplog.OpCuration:
		for i, e := range p.Entities {
			var err error
			if p.Records != nil {
				err = a.Store.PutEncoded(e.ID, p.Records[i])
			} else {
				err = a.Store.Put(e)
			}
			if err != nil {
				return err
			}
		}
	case oplog.OpDelete:
		for _, id := range op.EntityIDs {
			if _, err := a.Store.Delete(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// GraphAgent replays updates into an in-memory graph replica — the base
// "current KG" the serving refresh, NERD builds and checkpoints read. Readers
// take copy-on-write snapshots of this replica — O(1), so reads neither
// deep-copy the KG nor block replay — or read entities through the replica's
// clone-free shared paths (the records are immutable after Put).
type GraphAgent struct {
	Graph *triple.Graph
}

// Name implements Agent.
func (GraphAgent) Name() string { return "graph-replica" }

// Apply implements Agent. Replayed entities are installed as they are: the
// replay decoded them for its agents alone and none of them writes to one
// (Payload's contract), so the replica's frozen record can be the decoded
// one instead of a clone of it.
func (a GraphAgent) Apply(op oplog.Op, p Payload) error {
	switch op.Kind {
	case oplog.OpUpsert, oplog.OpOverwritePartition, oplog.OpCuration:
		for _, e := range p.Entities {
			a.Graph.PutOwned(e)
		}
	case oplog.OpDelete:
		for _, id := range op.EntityIDs {
			a.Graph.Delete(id)
		}
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
