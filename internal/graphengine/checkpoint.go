package graphengine

import (
	"encoding/json"
	"fmt"

	"saga/internal/triple"
)

// CheckpointMeta is the non-entity half of a checkpoint snapshot: the log
// watermark it covers and the construction link table at that watermark
// (source entity ID → canonical KG entity ID — metadata the entity payloads
// cannot reproduce).
type CheckpointMeta struct {
	// LSN is the watermark: the checkpoint captures the KG state produced by
	// every op with LSN <= LSN, and recovery replays only ops past it.
	LSN uint64 `json:"lsn"`
	// Links is the full link table at the watermark.
	Links map[triple.EntityID]triple.EntityID `json:"links,omitempty"`
}

// EncodeCheckpoint serializes a checkpoint payload: one CRC-framed JSON meta
// record followed by one CRC-framed binary record per entity — the same
// framing idiom as staged publish payloads, so a torn checkpoint fails its
// frame check and recovery falls back to the previous one. The payload is
// one exact-size allocation.
func EncodeCheckpoint(meta CheckpointMeta, entities []*triple.Entity) ([]byte, error) {
	hdr, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("graphengine: encode checkpoint meta: %w", err)
	}
	buf := make([]byte, 0, triple.RecordLen(len(hdr))+framedLen(entities))
	buf, err = appendEntityFrames(triple.AppendRecord(buf, hdr), entities)
	if err != nil {
		return nil, fmt.Errorf("graphengine: checkpoint: %w", err)
	}
	return buf, nil
}

// DecodeCheckpoint parses a checkpoint payload back into its meta and
// entities. Any framing or decoding error fails the whole checkpoint —
// recovery treats it as absent rather than restoring partial state.
func DecodeCheckpoint(payload []byte) (CheckpointMeta, []*triple.Entity, error) {
	hdr, rest, err := triple.NextRecord(payload)
	if err != nil {
		return CheckpointMeta{}, nil, fmt.Errorf("graphengine: read checkpoint meta: %w", err)
	}
	var meta CheckpointMeta
	if err := json.Unmarshal(hdr, &meta); err != nil {
		return CheckpointMeta{}, nil, fmt.Errorf("graphengine: decode checkpoint meta: %w", err)
	}
	p, err := decodeEntities(rest)
	if err != nil {
		return CheckpointMeta{}, nil, fmt.Errorf("graphengine: checkpoint entity: %w", err)
	}
	return meta, p.Entities, nil
}
