package layers

import (
	"time"

	"saga/internal/importance"
)

// ReplayImportance computes entity importance over the run's graph replica,
// the first half of every serving refresh.
func ReplayImportance(pl *Platform, budget time.Duration) Measure {
	return loopCall(budget, func() {
		importance.Compute(pl.p.GraphReplica, importance.Options{})
	})
}
