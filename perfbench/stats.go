package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles the tail rule picks from.
var tailLevels = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n
// samples. The epsilon keeps 99.9/100*n from rounding up a whole rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := min(max(rank(p, len(sorted)), 1), len(sorted))
	return sorted[r-1]
}

// tail applies the benchmark's percentile rule: the highest of
// tailLevels with at least minBeyond samples beyond it. ok is false
// when there are too few samples for any level.
func tail(samples []float64) (level, value float64, ok bool) {
	s := sortedCopy(samples)
	for i := len(tailLevels) - 1; i >= 0; i-- {
		p := tailLevels[i]
		if len(s)-rank(p, len(s)) >= minBeyond {
			return p, percentile(s, p), true
		}
	}
	return 0, 0, false
}

// median returns the 50th percentile (the mean of the two middle
// samples for an even count).
func median(samples []float64) float64 {
	s := sortedCopy(samples)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// best returns the smallest sample: the repetition least disturbed by
// other tenants of the host.
func best(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sortedCopy(samples)[0]
}

// noteTiming adds a repeated timing's best, median and tail to the
// text table, with the sample count.
func noteTiming(rep *report, name string, samples []float64, unit string, scale float64) {
	rep.note(fmt.Sprintf("%s best of %d", name, len(samples)), best(samples)*scale, unit)
	rep.note(name+" median", median(samples)*scale, unit)
	if level, v, ok := tail(samples); ok {
		rep.note(fmt.Sprintf("%s p%g", name, level), v*scale, unit)
	}
}

// sum adds the samples.
func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

// secondsSince is the elapsed wall time since t, in seconds.
func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
