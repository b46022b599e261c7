package core

import (
	"fmt"

	"saga/internal/graphengine"
	"saga/internal/oplog"
	"saga/internal/pmap"
)

// This file implements the platform's durability lifecycle: recovery at Open
// (one CatchUp from genesis, then the KG starts as the recovered replica's
// snapshot) and checkpoints, taken on the feed's ordered publisher, which
// compact the operation log to one base op holding the state at its head.
//
// The consistency argument every piece leans on: the log alone is the
// state. A checkpoint is captured from the graph replica and the link
// replica immediately after a CatchUp, when both are exactly the replay of
// every op at or below the watermark W = LastLSN, and it replaces those ops
// with one op at W that installs that state. Replaying the compacted log
// therefore reconstructs the same state as replaying the ops it replaced,
// for every store, and the construction KG is a snapshot of one of them.
// See docs/INVARIANTS.md#durability-and-recovery.

// DurabilityStats reports the platform's recovery and checkpoint state.
type DurabilityStats struct {
	// Durable reports whether the platform's log is durable.
	Durable bool `json:"durable"`
	// RecoveredLSN and RecoveredEntities describe the oldest op Open
	// replayed: the base the last checkpoint left (its LSN is that
	// checkpoint's watermark, and it lists every entity live there) or, in
	// a log never checkpointed, its first op. Both are 0 for an empty log.
	// ReplayedOps counts the ops Open replayed after it.
	RecoveredLSN      uint64 `json:"recovered_lsn"`
	RecoveredEntities int    `json:"recovered_entities"`
	ReplayedOps       int    `json:"replayed_ops"`
	// Checkpoints counts checkpoints taken this session; LastCheckpointLSN
	// is the newest one's watermark.
	Checkpoints       int    `json:"checkpoints"`
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn"`
	// LogOps and LogLSN describe the operation log right now: op count (the
	// base and the ops after it) and head LSN.
	LogOps int    `json:"log_ops"`
	LogLSN uint64 `json:"log_lsn"`
}

// DurabilityStats returns the platform's current durability counters.
func (p *Platform) DurabilityStats() DurabilityStats {
	p.durMu.Lock()
	st := p.durStats
	p.durMu.Unlock()
	st.LogOps = p.Engine.Log.Len()
	st.LogLSN = p.Engine.Log.LastLSN()
	return st
}

// applyLinkOp is the link-table agent: it replays each op's link deltas into
// the platform's log-derived link replica, so after a CatchUp the replica is
// exactly the link table at the agents' LSN — the table a checkpoint's base
// carries.
func (p *Platform) applyLinkOp(op oplog.Op, _ graphengine.Payload) error {
	if len(op.Links) == 0 && len(op.Unlinks) == 0 {
		return nil
	}
	p.linkMu.Lock()
	defer p.linkMu.Unlock()
	for src, tgt := range op.Links {
		p.linkReplica.Set(p.linkOwner, src, tgt)
	}
	for _, src := range op.Unlinks {
		p.linkReplica.Delete(p.linkOwner, src)
	}
	return nil
}

// recover restores the platform's state at Open through the agents alone:
// one CatchUp replays the log from genesis — the base the last checkpoint
// left, then at most a checkpoint interval of ops — each op applied once.
// The construction KG then starts as an O(1) snapshot of the recovered
// graph replica, sharing its tree and records, with a copy of the recovered
// link table.
func (p *Platform) recover() error {
	if lsn, n := p.Engine.Log.Base(); lsn > 0 {
		p.durStats.RecoveredLSN, p.durStats.RecoveredEntities = lsn, n
		p.durStats.ReplayedOps = p.Engine.Log.Len() - 1
	}
	if err := p.Engine.CatchUp(); err != nil {
		return fmt.Errorf("core: recovery catch-up: %w", err)
	}
	p.KG.Graph = p.GraphReplica.Snapshot()
	p.linkMu.Lock()
	p.KG.RestoreLinks(p.linkReplica.All())
	p.linkMu.Unlock()
	// Restored entities carry minted kg: IDs; re-seed the ID counter so new
	// mints never collide with recovered ones.
	p.KG.Graph.SeedIDs()
	return nil
}

// runCheckpoint takes one checkpoint: it catches every agent up to the log's
// head W = LastLSN and compacts the log to one base op at W, whose entities
// stream from the graph replica and whose links stream from the link
// replica (both now exactly the replay of ops ≤ W), handed over frozen, not
// copied. A durable log writes the base to a fresh segment, streamed from
// the replica's frozen records, and flips its manifest; a volatile log keeps
// its record in memory.
//
// It runs inside publishGroup — on the feed's publisher, the log's only
// appender and, through CatchUp, the replicas' only writer — so nothing
// advances the log or changes the replicas between the CatchUp and the
// compaction.
func (p *Platform) runCheckpoint() (uint64, error) {
	if err := p.Engine.CatchUp(); err != nil {
		return 0, err
	}
	p.linkMu.Lock()
	links := p.linkReplica
	p.linkOwner = new(pmap.Owner) // freezes links: the next write copies its path
	p.linkMu.Unlock()
	w, err := p.Engine.Checkpoint(links, p.GraphReplica)
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	p.durMu.Lock()
	p.durStats.Checkpoints++
	p.durStats.LastCheckpointLSN = w
	p.durMu.Unlock()
	return w, nil
}

// checkpointDue counts a publish group's batches toward the periodic
// checkpoint cadence and reports whether a checkpoint has come due. The
// publish routine asks before it publishes and checkpoints after the group's
// ops, so the snapshot is a batch-boundary state. It runs inside
// publishGroup.
func (p *Platform) checkpointDue(published int) bool {
	if p.ckptEvery <= 0 || published == 0 {
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

// Compact is Checkpoint: a checkpoint compacts the log. It stays for the
// benchmark's platform layer, which calls it.
func (p *Platform) Compact() (uint64, error) {
	return p.Checkpoint()
}
