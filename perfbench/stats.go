package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to mean anything: fewer and the "percentile" is one or two
// outliers.
const minBeyond = 10

// tailLadder lists the tail percentiles a summary may report, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// rank returns the nearest-rank index of quantile q (0 < q <= 1) among n
// sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank q-quantile of sorted samples, or 0
// when there are none.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// beyond counts the samples strictly past the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// tailQuantile picks the highest ladder percentile that leaves at least
// minBeyond samples above it among n, and reports how many it leaves. ok
// is false when even the median leaves fewer.
func tailQuantile(n int) (q float64, past int, ok bool) {
	for _, q := range tailLadder {
		if b := beyond(n, q); b >= minBeyond {
			return q, b, true
		}
	}
	return 0, 0, false
}

// summary is one timing distribution as the report prints it.
type summary struct {
	N      int
	P50    float64
	P99    float64
	Beyond int     // samples past the p99 rank
	TailQ  float64 // highest ladder percentile with minBeyond samples past it
	Tail   float64
}

// summarize sorts samples in place and summarizes them.
func summarize(samples []float64) summary {
	sort.Float64s(samples)
	s := summary{N: len(samples), P50: percentile(samples, 0.5), P99: percentile(samples, 0.99), Beyond: beyond(len(samples), 0.99)}
	if q, _, ok := tailQuantile(len(samples)); ok {
		s.TailQ, s.Tail = q, percentile(samples, q)
	}
	return s
}

// median returns the median of xs without modifying it; the mean of the
// two middle values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
