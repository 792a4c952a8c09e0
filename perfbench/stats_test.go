package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must equal Python's statistics.quantiles(xs, n=4), the
// computation the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// statistics.quantiles([3,1,2], n=4): unsorted input, odd count
		{[]float64{3, 1, 2}, 1, 2, 3},
		// statistics.quantiles([1,2], n=4): extrapolates beyond the data
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		// statistics.quantiles([10,20,30,40,50], n=4)
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of constant samples = %v, want 0", got)
	}
}

func TestMedianAndNearestRank(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if q := quantile(xs, 0.9); q != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", q)
	}
	if q := quantile(xs, 1); q != 100 {
		t.Errorf("p100 = %v", q)
	}
	if q := quantile(xs, 0); q != 1 {
		t.Errorf("p0 = %v", q)
	}
}

// The tail quantile leaves exactly ten samples above it at the chosen
// sample count.
func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{40, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := quantile(xs, tailQuantile(n))
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", n, beyond)
		}
	}
	if q := tailQuantile(1000); !near(q, 0.99) {
		t.Errorf("tailQuantile(1000) = %v, want 0.99", q)
	}
}
