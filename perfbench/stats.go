package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// percentileLadder lists the percentiles a run may report, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// rank returns the 1-based nearest rank of the p-th percentile of n
// samples. The epsilon keeps float error in p*n/100 (99.9*10000/100 is
// 9990.000000000002) from rounding an exact rank up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond samples beyond it, or 0 when not even the median has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is a latency distribution as the benchmark reports it.
type latencySummary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	// Tail is the highest percentile with at least minBeyond samples
	// beyond it, and TailMs its value.
	Tail   float64 `json:"tail_pct"`
	TailMs float64 `json:"tail_ms"`
}

func summarize(ms []float64) latencySummary {
	s := sortedCopy(ms)
	tail := tailPercentile(len(s))
	out := latencySummary{N: len(s), P50: percentile(s, 50), P90: percentile(s, 90), Tail: tail}
	if tail > 0 {
		out.TailMs = percentile(s, tail)
	}
	return out
}

// quartiles returns the nearest-rank 25th, 50th and 75th percentiles.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	return [3]float64{percentile(s, 25), percentile(s, 50), percentile(s, 75)}
}
