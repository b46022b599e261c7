package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of the
// samples. It refuses a percentile with fewer than minBeyond samples above it:
// such a value is one of the run's few worst samples, not a property of the
// system.
func percentile(samples []float64, p float64) (float64, error) {
	sorted := sortedCopy(samples)
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	rank := max(0, int(math.Ceil(p*float64(n)))-1)
	if n-1-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d: lengthen the run", p*100, n, n-1-rank, minBeyond)
	}
	return sorted[rank], nil
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the q-th quantile of the values with linear interpolation
// between order statistics; 0 for none.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
