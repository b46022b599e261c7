package layers

import (
	"fmt"
	"time"

	"saga/internal/triple"
	"saga/internal/truth"
)

// ReplayTruth estimates the true value of contested functional slots: three
// sources a slot, one of them dissenting, 32 slots a call as a commit's
// batched fusion hands them over. One op is one slot.
func ReplayTruth(names []string, budget time.Duration) Measure {
	const slots = 32
	if len(names) < 2 {
		return Measure{}
	}
	claims := make([]truth.Claim, 0, 3*slots)
	for s := 0; s < slots; s++ {
		slot := fmt.Sprintf("kg:%d\x1fname", s)
		good, bad := triple.String(names[s%len(names)]), triple.String(names[(s+1)%len(names)])
		claims = append(claims,
			truth.Claim{Slot: slot, Source: "src00", Value: good},
			truth.Claim{Slot: slot, Source: "src01", Value: good},
			truth.Claim{Slot: slot, Source: "src02", Value: bad})
	}
	m := loopCall(budget, func() { truth.Estimate(claims, truth.Options{}) })
	m.Ops *= slots
	return m
}
