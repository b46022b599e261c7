package layers

import (
	"encoding/json"
	"fmt"
	"time"

	"saga/internal/oplog"
	"saga/internal/triple"
)

// sampleOps builds upsert operations shaped like the feed publisher's: eight
// entity ids and two link deltas each, over the sample's ids.
func sampleOps(s Sample) []oplog.Op {
	var ops []oplog.Op
	for k, g := range s.groups() {
		op := oplog.Op{Kind: oplog.OpUpsert, Source: "src00", StagingKey: fmt.Sprintf("blob-%08d", k),
			Links: make(map[triple.EntityID]triple.EntityID)}
		for _, e := range g {
			op.EntityIDs = append(op.EntityIDs, e.ID)
		}
		op.Links[triple.EntityID(fmt.Sprintf("src00:e%d", k))] = g[0].ID
		op.Links[triple.EntityID(fmt.Sprintf("src01:e%d", k))] = g[1].ID
		ops = append(ops, op)
	}
	return ops
}

// ReplayLogAppend appends operations to a volatile log: the operation log's
// own cost, without a record store under it. Bytes is the encoded size of
// the operations, which is what a durable log hands its record store.
func ReplayLogAppend(s Sample, budget time.Duration) (Measure, error) {
	ops := sampleOps(s)
	log := oplog.NewVolatile()
	var err error
	m := loop(budget, len(ops), func(i int) {
		if _, aerr := log.Append(ops[i]); aerr != nil {
			err = aerr
		}
	})
	var pass int64 // encoded size of one pass over the operations
	for _, op := range ops {
		b, jerr := json.Marshal(op)
		if jerr != nil {
			return m, jerr
		}
		pass += int64(len(b))
	}
	m.Bytes = pass * int64(m.Ops) / int64(max(1, len(ops)))
	return m, err
}
