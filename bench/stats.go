package main

import (
	"math"
	"sort"
)

// median of the values (mean of the middle two for an even count); 0 for
// none. The input is not modified.
func median(vs []float64) float64 {
	return percentile(vs, 50)
}

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks; 0 for no values. The input is not modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is the position of one or two outliers.
const minBeyond = 10

// tailPercentile picks the highest of p95/p90/p75 that has at least
// minBeyond of the n samples beyond it, or 0 when not even p75 does.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond := int(math.Floor(float64(n) * (100 - p) / 100)); beyond >= minBeyond {
			return p
		}
	}
	return 0
}

// geomean of the values from the sum of their logs and their count; 1 for
// none (a workload that searches nothing neither gains nor loses).
func geomean(logSum float64, n int) float64 {
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}
