package main

import (
	"testing"
	"time"
)

// seq returns the samples n, n-1, ..., 1 ms (descending, so that the
// percentile has to sort them).
func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = time.Duration(n-i) * time.Millisecond
	}
	return s
}

func TestNearestRankPercentiles(t *testing.T) {
	cases := []struct {
		n              int
		p50, p90, p100 int // expected values in ms
		beyond90       int
		p90Reportable  bool
	}{
		{n: 1, p50: 1, p90: 1, p100: 1, beyond90: 0},
		{n: 2, p50: 1, p90: 2, p100: 2, beyond90: 0},
		{n: 10, p50: 5, p90: 9, p100: 10, beyond90: 1},
		{n: 101, p50: 51, p90: 91, p100: 101, beyond90: 10, p90Reportable: true},
	}
	for _, c := range cases {
		s := seq(c.n)
		for _, q := range []struct{ p, want int }{{50, c.p50}, {90, c.p90}, {100, c.p100}} {
			got, ok := s.percentile(q.p)
			if !ok || got != time.Duration(q.want)*time.Millisecond {
				t.Errorf("n=%d p%d = %v (ok %v), want %d ms", c.n, q.p, got, ok, q.want)
			}
		}
		if got := beyond(90, c.n); got != c.beyond90 {
			t.Errorf("n=%d: %d samples beyond p90, want %d", c.n, got, c.beyond90)
		}
		if got := beyond(90, c.n) >= 10; got != c.p90Reportable {
			t.Errorf("n=%d: p90 reportable = %v, want %v", c.n, got, c.p90Reportable)
		}
		if got := s.medianMs(); got != float64(c.p50) {
			t.Errorf("n=%d: median %v ms, want %d", c.n, got, c.p50)
		}
	}
	// Percentiles are actual samples, never values between them.
	two := samples{10 * time.Millisecond, 30 * time.Millisecond}
	if got, _ := two.percentile(50); got != 10*time.Millisecond {
		t.Errorf("p50 of {10, 30} ms = %v, want 10ms (no interpolation)", got)
	}
}

func TestPercentileOfNoSamples(t *testing.T) {
	if _, ok := samples(nil).percentile(50); ok {
		t.Error("percentile of no samples reported ok")
	}
	if got := beyond(90, 0); got != 0 {
		t.Errorf("beyond(90, 0) = %d, want 0", got)
	}
}
