package storage

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultBackend is the backend the platform resolves when none is named.
const DefaultBackend = "memory"

// Options parameterizes backend resolution. Backends read the fields they
// understand and ignore the rest, so one Options value configures every
// role.
type Options struct {
	// Dir roots a durable backend's state; each role opens its own file or
	// subdirectory under it (oplog/, staging/, entities.dat, checkpoints/).
	// Required by durable backends, ignored by memory.
	Dir string
	// SegmentBytes is the segment rotation threshold for segment-file
	// stores (the staging store and the record log); 0 means the backend
	// default. Small values make the record log rotate often, which bounds
	// how much tail a compaction has to copy.
	SegmentBytes int64
}

// Backend bundles one implementation of each storage role under a name.
// Register implementations at init time; resolve them at runtime by name.
type Backend interface {
	// Name is the registry key ("memory", "disk").
	Name() string
	// Durable reports whether the backend's state survives process restart.
	Durable() bool

	OpenRecordLog(o Options) (RecordLog, error)
	OpenBlobStore(o Options) (BlobStore, error)
	OpenEntityKV(o Options) (EntityKV, error)
	OpenCheckpoints(o Options) (Checkpointer, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Backend)
)

// Register adds a backend under its name. It panics on a duplicate name —
// registration happens at init time, where a collision is a programming
// error, not a runtime condition.
func Register(name string, b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("storage: backend %q registered twice", name))
	}
	registry[name] = b
}

// Handle is a backend bound to resolution options: the runtime identity of
// "which storage, where". Each Open* call opens a fresh store for that role;
// the platform opens each role once and owns the result.
type Handle struct {
	backend Backend
	opts    Options
}

// Resolve looks up a registered backend by name and binds it to opts.
// An empty name resolves DefaultBackend.
func Resolve(name string, opts Options) (Handle, error) {
	if name == "" {
		name = DefaultBackend
	}
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Handle{}, fmt.Errorf("storage: unknown backend %q (registered: %v)", name, Backends())
	}
	return Handle{backend: b, opts: opts}, nil
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Name returns the resolved backend's name.
func (h Handle) Name() string { return h.backend.Name() }

// Durable reports whether the resolved backend survives restarts.
func (h Handle) Durable() bool { return h.backend.Durable() }

// RecordLog opens the operation log's record storage.
func (h Handle) RecordLog() (RecordLog, error) { return h.backend.OpenRecordLog(h.opts) }

// BlobStore opens the staging object store.
func (h Handle) BlobStore() (BlobStore, error) { return h.backend.OpenBlobStore(h.opts) }

// EntityKV opens the entity index's payload KV.
func (h Handle) EntityKV() (EntityKV, error) { return h.backend.OpenEntityKV(h.opts) }

// Checkpoints opens the recovery checkpoint store.
func (h Handle) Checkpoints() (Checkpointer, error) { return h.backend.OpenCheckpoints(h.opts) }
