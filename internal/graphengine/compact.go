package graphengine

import (
	"fmt"

	"saga/internal/oplog"
	"saga/internal/triple"
)

// CompactStats reports what one log compaction did. The json tags keep it
// consistent with the rest of the /v1/admin envelope, which embeds it.
type CompactStats struct {
	// Watermark is the LSN the compaction conflated through.
	Watermark uint64 `json:"watermark"`
	// OpsBefore and OpsAfter count prefix ops (LSN <= Watermark) before and
	// after the rewrite.
	OpsBefore int `json:"ops_before"`
	OpsAfter  int `json:"ops_after"`
	// EntitiesKept is the number of entities whose final captured state
	// survived into the rewritten prefix; Tombstoned is the number elided
	// because their final prefix op was a delete.
	EntitiesKept int `json:"entities_kept"`
	Tombstoned   int `json:"tombstoned"`
	// LinksKept and LinksElided count link-table entries likewise.
	LinksKept   int `json:"links_kept"`
	LinksElided int `json:"links_elided"`
}

// CompactThrough rewrites the log prefix at or below watermark w to each
// entity's final captured state: per-entity conflation (the same
// last-writer-wins rule the feed publisher applies within a publish group,
// extended across the whole prefix), tombstone elision (an entity whose
// final prefix op is a delete vanishes entirely — replay from genesis never
// learns it existed), and link-table conflation per source ID. Checkpoint
// marker ops are dropped (recovery reads watermarks from the checkpoint
// store, not the log).
//
// Surviving state is grouped under the op that last touched it, preserving
// that op's LSN, Source, and Time — so the rewritten log is a subsequence of
// the original LSN sequence and every consumer that indexes by LSN value
// keeps working. Rewritten payload ops are always OpUpsert: a replayed final
// state is an upsert regardless of how it was originally produced, and
// upsert is the one kind every agent applies (partition overwrites, for
// example, deliberately skip the text index).
//
// Replay equivalence: replaying the rewritten prefix from genesis produces
// exactly the per-store state the original prefix produced, because every
// store's apply rules are last-writer-wins per entity (and per link key).
//
// Compaction is byte-level: frame i of an op's staged payload is entity
// op.EntityIDs[i] (docs/INVARIANTS.md#payload-frame-alignment), so choosing
// each entity's last version means choosing a frame, and the rewritten
// payload is the surviving frames concatenated — nothing is decoded or
// encoded again, and because encodings are canonical the result is the very
// payload a decode and re-encode would produce. The alignment is verified
// frame by frame (count, CRC, and the ID at the head of each record); any
// mismatch aborts the compaction with the log untouched.
//
// Concurrency: the swap itself is atomic under the log's lock. CompactThrough
// must only be called when every registered agent has replayed to at least w
// (the platform compacts at checkpoint watermarks, which follow a CatchUp),
// so no concurrent replay ever needs a pre-rewrite prefix op or its staged
// payload. It does NOT hold the CatchUp lock: compaction of cold prefix and
// replay of fresh suffix proceed in parallel.
//
// Crash windows: new payloads are staged before the swap and old payloads
// deleted after it, so a crash leaves orphaned staging blobs (harmless:
// nothing references them) but never a log op whose payload is missing.
func (e *Engine) CompactThrough(w uint64) (CompactStats, error) {
	stats := CompactStats{Watermark: w}
	ops := e.Log.OpsThrough(w)
	stats.OpsBefore = len(ops)
	if len(ops) == 0 {
		return stats, nil
	}

	// Pass 1: final state per entity and per link key, with the index of the
	// op that settled it.
	type entFinal struct {
		idx   int32  // op that settled the entity
		pos   int32  // where that op first lists it: an ID listed twice keeps its first place and its last frame
		frame []byte // header and record, aliasing the staged blob; nil: final op was a delete (tombstone)
	}
	type linkFinal struct {
		idx    int
		target triple.EntityID
		dead   bool
	}
	final := make(map[triple.EntityID]entFinal)
	links := make(map[triple.EntityID]linkFinal)
	for i, op := range ops {
		switch op.Kind {
		case oplog.OpUpsert, oplog.OpOverwritePartition, oplog.OpCuration:
			if op.StagingKey == "" {
				break
			}
			payload, ok := e.Staging.Get(op.StagingKey)
			if !ok {
				return stats, fmt.Errorf("graphengine: compact lsn %d: staged payload %s missing", op.LSN, op.StagingKey)
			}
			for j, id := range op.EntityIDs {
				rec, rest, err := triple.NextRecord(payload)
				if err != nil {
					return stats, fmt.Errorf("graphengine: compact lsn %d: frame of %s: %w", op.LSN, id, err)
				}
				if got, err := triple.PeekID(rec); err != nil || string(got) != string(id) {
					return stats, fmt.Errorf("graphengine: compact lsn %d: payload frame holds %q where the op lists %s (%v)", op.LSN, got, id, err)
				}
				ef := entFinal{idx: int32(i), pos: int32(j), frame: payload[:len(payload)-len(rest)]}
				if prev, ok := final[id]; ok && prev.idx == ef.idx {
					ef.pos = prev.pos
				}
				final[id] = ef
				payload = rest
			}
			if len(payload) != 0 {
				return stats, fmt.Errorf("graphengine: compact lsn %d: payload runs %d bytes past its %d listed entities", op.LSN, len(payload), len(op.EntityIDs))
			}
		case oplog.OpDelete:
			for _, id := range op.EntityIDs {
				final[id] = entFinal{idx: int32(i)}
			}
		}
		for src, tgt := range op.Links {
			links[src] = linkFinal{idx: i, target: tgt}
		}
		for _, src := range op.Unlinks {
			links[src] = linkFinal{idx: i, dead: true}
		}
	}
	linksByOp := make(map[int]map[triple.EntityID]triple.EntityID)
	for src, lf := range links {
		if lf.dead {
			stats.LinksElided++
			continue
		}
		stats.LinksKept++
		m := linksByOp[lf.idx]
		if m == nil {
			m = make(map[triple.EntityID]triple.EntityID)
			linksByOp[lf.idx] = m
		}
		m[src] = lf.target
	}

	// kept[i] counts the entities op i settles; an op that settles neither
	// an entity nor a link drops out of the log.
	kept := make([]int32, len(ops))
	for _, ef := range final {
		if ef.frame != nil {
			stats.EntitiesKept++
			kept[ef.idx]++
		} else {
			stats.Tombstoned++
		}
	}
	survivors := 0
	for i := range ops {
		if kept[i] > 0 || len(linksByOp[i]) > 0 {
			survivors++
		}
	}

	// Pass 2: regroup survivors under their final-touch op, preserving that
	// op's within-op entity order.
	rewritten := make([]oplog.Op, 0, survivors)
	newKeys := make([]string, 0, survivors)
	abort := func(err error) (CompactStats, error) {
		for _, key := range newKeys {
			e.Staging.Delete(key) //saga:errok — unreferenced blob, best effort
		}
		return stats, err
	}
	for i, op := range ops {
		opLinks := linksByOp[i]
		if kept[i] == 0 && len(opLinks) == 0 {
			continue
		}
		nop := oplog.Op{LSN: op.LSN, Kind: oplog.OpUpsert, Source: op.Source, Time: op.Time, Links: opLinks}
		if kept[i] > 0 {
			nop.EntityIDs = make([]triple.EntityID, 0, kept[i])
			size := 0
			for j, id := range op.EntityIDs {
				if ef := final[id]; int(ef.idx) == i && int(ef.pos) == j && ef.frame != nil {
					nop.EntityIDs = append(nop.EntityIDs, id)
					size += len(ef.frame)
				}
			}
			payload := make([]byte, 0, size)
			for _, id := range nop.EntityIDs {
				payload = append(payload, final[id].frame...)
			}
			key, err := e.Staging.Stage(payload)
			if err != nil {
				return abort(fmt.Errorf("graphengine: stage compacted payload at lsn %d: %w", op.LSN, err))
			}
			newKeys = append(newKeys, key)
			nop.StagingKey = key
		}
		rewritten = append(rewritten, nop)
	}

	if err := e.Log.ReplaceRange(w, rewritten); err != nil {
		return abort(fmt.Errorf("graphengine: swap compacted prefix: %w", err))
	}
	stats.OpsAfter = len(rewritten)

	// Old payloads are unreferenced now; delete them (retention, not
	// correctness — a crash here only leaks blobs).
	for _, op := range ops {
		if op.StagingKey != "" {
			e.Staging.Delete(op.StagingKey) //saga:errok — retention only
		}
	}
	return stats, nil
}
