package graphengine

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"

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

// WriteCheckpoint streams a checkpoint payload to w: one CRC-framed JSON
// meta record — meta is the json.Marshal of a CheckpointMeta, so a caller can
// marshal it under the lock that guards its link table and write unlocked —
// followed by one CRC-framed binary record per entity, in the order entities
// yields them. It is the same framing idiom as staged publish payloads, so a
// torn checkpoint fails its frame check and recovery falls back to the
// previous one. Each entity's frame is encoded into one scratch buffer reused
// across entities: what a checkpoint allocates is bounded by its largest
// frame, not by the graph.
func WriteCheckpoint(w io.Writer, meta []byte, entities iter.Seq[*triple.Entity]) error {
	hdr := triple.RecordHeader(meta)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(meta); err != nil {
		return err
	}
	var frame []byte
	for e := range entities {
		var err error
		if frame, err = appendEntityFrame(frame[:0], e); err != nil {
			return fmt.Errorf("graphengine: checkpoint: %w", err)
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// DecodeCheckpoint parses a checkpoint payload back into its meta and its
// entities with their frames: the Payload recovery restores through the
// agents, its records sub-slices of payload. Any framing or decoding error
// fails the whole checkpoint — recovery treats it as absent rather than
// restoring partial state.
func DecodeCheckpoint(payload []byte) (CheckpointMeta, Payload, error) {
	hdr, rest, err := triple.NextRecord(payload)
	if err != nil {
		return CheckpointMeta{}, Payload{}, fmt.Errorf("graphengine: read checkpoint meta: %w", err)
	}
	var meta CheckpointMeta
	if err := json.Unmarshal(hdr, &meta); err != nil {
		return CheckpointMeta{}, Payload{}, fmt.Errorf("graphengine: decode checkpoint meta: %w", err)
	}
	p, err := decodeEntities(rest)
	if err != nil {
		return CheckpointMeta{}, Payload{}, fmt.Errorf("graphengine: checkpoint entity: %w", err)
	}
	return meta, p, nil
}
