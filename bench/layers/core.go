// Package layers holds every call the benchmark makes into the platform, one
// file per layer (a layer is one of the repo's packages). The rest of the
// benchmark imports nothing of the platform, so a refactor that moves this
// surface breaks exactly one small file, and README.md can list the surface.
package layers

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"saga/internal/core"
	"saga/internal/triple"
)

// Config is the part of core.Options a workload sets. Every configuration is
// durable, because every workload reports recover_s.
type Config struct {
	// Disk selects the disk backend rooted at Dir; otherwise the stores are
	// in memory and only the log, staging store and checkpoints live under
	// Dir (the hybrid deployment).
	Disk            bool
	Dir             string
	CheckpointEvery int
	CompactAfter    int
}

func (c Config) options() core.Options {
	o := core.Options{Durability: core.DurabilityOptions{
		CheckpointEvery: c.CheckpointEvery,
		CompactAfter:    c.CompactAfter,
	}}
	if c.Disk {
		o.Storage = core.StorageOptions{Backend: "disk", DataDir: c.Dir}
	} else {
		o.Durability.Dir = c.Dir
	}
	return o
}

// Platform is an open platform.
type Platform struct{ p *core.Platform }

// Open opens (and on an existing tree recovers) a platform.
func Open(c Config) (*Platform, error) {
	p, err := core.Open(c.options())
	if err != nil {
		return nil, err
	}
	return &Platform{p: p}, nil
}

// Close closes the platform and its stores.
func (pl *Platform) Close() error { return pl.p.Close() }

// RefreshServing pushes the stable KG into the live store: today the only
// path from a committed batch to /v1/entity.
func (pl *Platform) RefreshServing() { pl.p.RefreshServing() }

// Checkpoint takes a durable checkpoint.
func (pl *Platform) Checkpoint() error {
	_, err := pl.p.Checkpoint()
	return err
}

// Compact compacts the log through the checkpoint floor.
func (pl *Platform) Compact() error {
	_, err := pl.p.Compact()
	return err
}

// LogLSN is the operation log's head LSN.
func (pl *Platform) LogLSN() uint64 { return pl.p.Engine.Log.LastLSN() }

// Digest hashes the construction KG's triples, its link table and the
// entity-store payloads of the sample ids. It is equal before Close and after
// reopen exactly when recovery lost and invented nothing.
func (pl *Platform) Digest(sample []string) (string, error) {
	h := sha256.New()
	var n [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, t := range pl.p.KG.Graph.Triples() {
		put(fmt.Sprintf("%s|%s|%s|%s|%s|%s|%v|%v", t.Subject, t.Predicate, t.RelID, t.RelPred, t.Object.Text(), t.Locale, t.Sources, t.Trust))
	}
	links := pl.p.KG.LinksSnapshot()
	srcs := make([]string, 0, len(links))
	for src := range links {
		srcs = append(srcs, string(src))
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		put(src)
		put(string(links[triple.EntityID(src)]))
	}
	for _, id := range sample {
		e, err := pl.p.EntityStore.Get(triple.EntityID(id))
		if err != nil {
			return "", fmt.Errorf("entity store get %s: %w", id, err)
		}
		if e == nil {
			put("absent")
			continue
		}
		b, err := e.MarshalBinary()
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
