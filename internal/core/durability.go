package core

import (
	"encoding/json"
	"fmt"
	"io"

	"saga/internal/graphengine"
	"saga/internal/oplog"
)

// This file implements the platform's durability lifecycle: recovery at Open
// (restore the latest checkpoint through the agents, replay only the log
// suffix through CatchUp, start the KG as the recovered replica's
// snapshot), periodic checkpoints taken on the feed's ordered publisher and
// streamed to their file without an in-memory image, and background log
// compaction through the older of the two newest checkpoints.
//
// The consistency argument every piece leans on: a checkpoint is a pure
// function of the operation log — it is captured from the graph replica and
// the link replica immediately after a CatchUp, when both are exactly the
// replay of every op at or below the watermark W = LastLSN. Restoring the
// checkpoint and replaying ops past W through the same agents therefore
// reconstructs the same state as replaying the whole log, for every store,
// and the construction KG is a snapshot of one of them.
// See docs/INVARIANTS.md#durability-and-recovery.

// DurabilityStats reports the platform's recovery, checkpoint, and
// compaction state.
type DurabilityStats struct {
	// Durable reports whether the platform has a durable checkpoint store.
	Durable bool `json:"durable"`
	// RecoveredLSN is the watermark of the checkpoint Open restored from (0
	// when recovery replayed from genesis), and RecoveredEntities the number
	// of entities it restored. ReplayedOps counts the log-suffix ops replayed
	// past the checkpoint.
	RecoveredLSN      uint64 `json:"recovered_lsn"`
	RecoveredEntities int    `json:"recovered_entities"`
	ReplayedOps       int    `json:"replayed_ops"`
	// Checkpoints counts durable checkpoints saved this session;
	// LastCheckpointLSN is the newest saved watermark.
	Checkpoints       int    `json:"checkpoints"`
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn"`
	// CompactionFloor is the highest watermark compaction may rewrite
	// through: the penultimate checkpoint watermark, so every retained
	// checkpoint stays at or above any rewritten prefix.
	CompactionFloor  uint64                   `json:"compaction_floor"`
	Compactions      int                      `json:"compactions"`
	CompactionErrors int                      `json:"compaction_errors"`
	LastCompaction   graphengine.CompactStats `json:"last_compaction"`
	// LogOps and LogLSN describe the operation log right now: surviving op
	// count (post-compaction) and head LSN.
	LogOps int    `json:"log_ops"`
	LogLSN uint64 `json:"log_lsn"`
}

// DurabilityStats returns the platform's current durability counters.
func (p *Platform) DurabilityStats() DurabilityStats {
	p.durMu.Lock()
	st := p.durStats
	st.CompactionFloor = p.prevCkptLSN
	p.durMu.Unlock()
	st.Durable = p.Checkpoints != nil
	st.LogOps = p.Engine.Log.Len()
	st.LogLSN = p.Engine.Log.LastLSN()
	return st
}

// applyLinkOp is the link-table agent: it replays each op's link deltas into
// the platform's log-derived link replica, so after a CatchUp the replica is
// exactly the link table at the agents' LSN — the state checkpoints embed.
func (p *Platform) applyLinkOp(op oplog.Op, _ graphengine.Payload) error {
	if len(op.Links) == 0 && len(op.Unlinks) == 0 {
		return nil
	}
	p.linkMu.Lock()
	defer p.linkMu.Unlock()
	for src, tgt := range op.Links {
		p.linkReplica[src] = tgt
	}
	for _, src := range op.Unlinks {
		delete(p.linkReplica, src)
	}
	return nil
}

// recover restores the platform's state at Open through the agents alone,
// each logged op applied once: Restore hands the latest decodable checkpoint
// — its entities with their frames, and its link table — to every agent as
// one synthetic upsert at the watermark, and one CatchUp replays the log
// suffix past it. With no usable checkpoint that CatchUp replays the whole
// log (which, after compaction, is itself the conflated history — replay
// from genesis of a compacted log produces the same state the uncompacted
// log did). The construction KG then starts as an O(1) snapshot of the
// recovered graph replica, sharing its tree and records, with a copy of the
// recovered link table.
//
// The compaction floor restarts at zero: a checkpoint file older than the
// recovered one may survive on disk, and compacting past it would strand it
// as a recovery source. The first two checkpoints of the new session
// re-establish the floor.
func (p *Platform) recover() error {
	var w uint64
	if p.Checkpoints != nil {
		if lsn, payload, ok := p.Checkpoints.Latest(); ok {
			meta, restored, err := graphengine.DecodeCheckpoint(payload)
			if err == nil && meta.LSN == lsn {
				op := oplog.Op{LSN: lsn, Kind: oplog.OpUpsert, Links: meta.Links}
				if err := p.Engine.Restore(op, restored); err != nil {
					return fmt.Errorf("core: restore checkpoint at lsn %d: %w", lsn, err)
				}
				w = lsn
				p.durStats.RecoveredLSN = lsn
				p.durStats.RecoveredEntities = len(restored.Entities)
			}
			// A payload that frames but does not decode is treated as absent:
			// the CatchUp below replays the whole log instead.
		}
	}
	p.durStats.ReplayedOps = p.Engine.Log.Len() - p.Engine.Log.PrefixLen(w)
	if err := p.Engine.CatchUp(); err != nil {
		return fmt.Errorf("core: recovery catch-up: %w", err)
	}
	p.KG.Graph = p.GraphReplica.Snapshot()
	p.linkMu.Lock()
	p.KG.RestoreLinks(p.linkReplica)
	p.linkMu.Unlock()
	// Restored entities carry minted kg: IDs; re-seed the ID counter so new
	// mints never collide with recovered ones.
	p.KG.Graph.SeedIDs()
	return nil
}

// runCheckpoint takes one checkpoint: it publishes the OpCheckpoint marker,
// catches every agent up to it, and — when the platform has a durable
// checkpoint store — streams the graph and link replicas (now exactly the
// replay of ops ≤ W) into one atomic checkpoint file at watermark
// W = LastLSN. Only the JSON meta is built in memory, marshalled straight
// from the link replica under linkMu; the entity frames go from a
// RangeShared walk of the frozen graph replica through the store's write
// buffer to the file, with no lock held. Afterwards it advances the
// compaction floor to the previous checkpoint's watermark and triggers
// background compaction when the ops between the last compaction's
// watermark and the floor have grown past the configured threshold.
//
// It runs inside publishGroup — on the feed's publisher, the log's only
// appender — so no publish advances the log between the CatchUp and the save.
func (p *Platform) runCheckpoint() (uint64, error) {
	if _, err := p.Engine.Publish(oplog.OpCheckpoint, "construction", nil); err != nil {
		return 0, err
	}
	if err := p.Engine.CatchUp(); err != nil {
		return 0, err
	}
	w := p.Engine.Log.LastLSN()
	if p.Checkpoints == nil {
		return w, nil
	}
	p.linkMu.Lock()
	meta, err := json.Marshal(graphengine.CheckpointMeta{LSN: w, Links: p.linkReplica})
	p.linkMu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("core: encode checkpoint meta: %w", err)
	}
	if err := p.Checkpoints.Save(w, func(out io.Writer) error {
		return graphengine.WriteCheckpoint(out, meta, p.GraphReplica.RangeShared)
	}); err != nil {
		return 0, fmt.Errorf("core: save checkpoint: %w", err)
	}
	p.durMu.Lock()
	p.durStats.Checkpoints++
	floor := p.durStats.LastCheckpointLSN
	p.prevCkptLSN = floor
	p.durStats.LastCheckpointLSN = w
	// Only ops past this session's last compaction count: the prefix below
	// its watermark is already conflated, and rewriting it sheds nothing.
	fresh := p.Engine.Log.PrefixLen(floor) - p.Engine.Log.PrefixLen(p.durStats.LastCompaction.Watermark)
	compact := p.compactAfter > 0 && floor > 0 && fresh >= p.compactAfter
	p.durMu.Unlock()
	if compact {
		p.triggerCompact(floor)
	}
	return w, nil
}

// checkpointDue counts a publish group's batches toward the periodic
// checkpoint cadence and reports whether a checkpoint has come due. The
// publish routine asks before it publishes and checkpoints after the group's
// ops, so the snapshot is a batch-boundary state. It runs inside
// publishGroup.
func (p *Platform) checkpointDue(published int) bool {
	if p.Checkpoints == nil || p.ckptEvery <= 0 || published == 0 {
		return false
	}
	p.durMu.Lock()
	defer p.durMu.Unlock()
	p.ckptBatches += published
	if p.ckptBatches < p.ckptEvery {
		return false
	}
	p.ckptBatches = 0
	return true
}

// Compact rewrites the log prefix at or below the compaction floor (the
// penultimate checkpoint watermark) to each entity's final captured state —
// per-entity conflation, tombstone elision, link conflation — and reports
// what it did. With fewer than two checkpoints taken this session there is
// no safe floor yet and Compact is a no-op. Safe concurrently with ingestion
// and the background compactor; runs serialize.
func (p *Platform) Compact() (graphengine.CompactStats, error) {
	p.durMu.Lock()
	floor := p.prevCkptLSN
	p.durMu.Unlock()
	if floor == 0 {
		return graphengine.CompactStats{}, nil
	}
	return p.compactThrough(floor)
}

// compactThrough serializes compaction runs and records their outcome.
func (p *Platform) compactThrough(w uint64) (graphengine.CompactStats, error) {
	p.compactRunMu.Lock()
	defer p.compactRunMu.Unlock()
	stats, err := p.Engine.CompactThrough(w)
	p.durMu.Lock()
	if err != nil {
		p.durStats.CompactionErrors++
	} else {
		p.durStats.Compactions++
		p.durStats.LastCompaction = stats
	}
	p.durMu.Unlock()
	return stats, err
}

// compactorLoop runs background compactions, one at a time, off the publish
// path: compaction rewrites only the cold prefix (every agent is already
// past the floor), so ingestion, publishing, and replay proceed in parallel
// with it.
func (p *Platform) compactorLoop() {
	defer close(p.compactDone)
	for w := range p.compactTrig {
		_, _ = p.compactThrough(w) //saga:errok recorded in durStats.CompactionErrors; next checkpoint re-triggers
	}
}

// triggerCompact hands the compactor a floor to compact through; a trigger
// arriving while one is pending coalesces (the pending run covers it at the
// next checkpoint).
func (p *Platform) triggerCompact(w uint64) {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	if p.compactStopped {
		return
	}
	select {
	case p.compactTrig <- w:
	default:
	}
}

// stopCompactor stops the background compactor and waits for an in-flight
// run to finish, so Close can shut the log and staging store safely.
func (p *Platform) stopCompactor() {
	p.compactMu.Lock()
	if !p.compactStopped {
		p.compactStopped = true
		close(p.compactTrig)
	}
	p.compactMu.Unlock()
	<-p.compactDone
}
