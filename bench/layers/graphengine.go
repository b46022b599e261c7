package layers

import (
	"time"

	"saga/internal/graphengine"
	"saga/internal/oplog"
	"saga/internal/triple"
)

// ReplayEngine publishes the sample, eight entities an operation, into a
// scratch engine over a volatile log and memory staging, then replays the log
// into a graph agent: publish (encode, stage, append) and catch-up (decode,
// apply) with no disk under them. The first measure is publish per
// operation, the second catch-up per operation.
func ReplayEngine(s Sample, budget time.Duration) (publish, catchup Measure, err error) {
	groups := s.groups()
	if len(groups) == 0 {
		return
	}
	eng := graphengine.New(oplog.NewVolatile())
	eng.RegisterAgent(graphengine.GraphAgent{Graph: triple.NewGraph()})
	for publish.Elapsed+catchup.Elapsed < budget {
		t := time.Now()
		for _, g := range groups {
			if _, err = eng.Publish(oplog.OpUpsert, "src00", g); err != nil {
				return
			}
		}
		publish.Elapsed += time.Since(t)
		publish.Ops += len(groups)
		t = time.Now()
		if err = eng.CatchUp(); err != nil {
			return
		}
		catchup.Elapsed += time.Since(t)
		catchup.Ops += len(groups)
	}
	return
}
