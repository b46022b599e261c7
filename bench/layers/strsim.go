package layers

import (
	"time"

	"saga/internal/strsim"
)

// ReplayScore scores neighbouring name pairs the way the rule matcher's name
// term does: Jaro-Winkler over normalized names.
func ReplayScore(names []string, budget time.Duration) Measure {
	if len(names) < 2 {
		return Measure{}
	}
	var sink float64
	m := loop(budget, len(names)-1, func(i int) {
		sink += strsim.JaroWinkler(strsim.Normalize(names[i]), strsim.Normalize(names[i+1]))
	})
	_ = sink
	return m
}
