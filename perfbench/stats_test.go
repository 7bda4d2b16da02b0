package main

import (
	"math"
	"testing"
)

func TestTailQuantilePicksHighestWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{n: 20000, q: 0.999, beyond: 20, ok: true},
		{n: 10000, q: 0.999, beyond: 10, ok: true},
		{n: 9999, q: 0.99, beyond: 99, ok: true},
		{n: 1000, q: 0.99, beyond: 10, ok: true},
		{n: 999, q: 0.95, beyond: 49, ok: true},
		{n: 100, q: 0.9, beyond: 10, ok: true},
		{n: 21, q: 0.5, beyond: 10, ok: true},
		{n: 20, q: 0.5, beyond: 10, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	} {
		q, beyond, ok := tailQuantile(c.n)
		if q != c.q || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailQuantile(%d) = (%v, %d, %v), want (%v, %d, %v)", c.n, q, beyond, ok, c.q, c.beyond, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestSummarizeReportsCountBeyondP99(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 2000 || s.P50 != 1000 || s.P99 != 1980 || s.Beyond != 20 || s.TailQ != 0.99 || s.Tail != 1980 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if got := median(nil); got != 0 || math.IsNaN(got) {
		t.Errorf("median of nothing = %v", got)
	}
}
