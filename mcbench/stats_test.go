package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// A percentile is reported only when at least ten samples lie above it.
func TestPercentileNeedsTenSamplesAbove(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{100, 0.9, true, 90},
		{99, 0.9, false, 0},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{11, 0.01, true, 1},
		{10, 0.01, false, 0},
		{0, 0.5, false, 0},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if ok {
			above := 0
			for _, x := range seq(c.n) {
				if x > got {
					above++
				}
			}
			if above < minAbove {
				t.Errorf("percentile(n=%d, q=%g) has %d samples above it", c.n, c.q, above)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %g", m)
	}
}
