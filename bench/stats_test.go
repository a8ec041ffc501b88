package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.1, 10}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99},
		{10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		got := tailQuantile(c.n)
		if got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0.5 && float64(c.n)*(1-got) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond", c.n, got)
		}
	}
	// 500 samples cannot support a p99: the capped read falls back to p90.
	s := make([]float64, 500)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := cappedQuantile(s, 0.99); got != 450 {
		t.Errorf("cappedQuantile(500 samples, 0.99) = %v, want the p90, 450", got)
	}
	if got := cappedQuantile(s, 0.5); got != 250 {
		t.Errorf("cappedQuantile(500 samples, 0.5) = %v, want 250", got)
	}
}

func TestSummarizeIsMedianOfRepetitions(t *testing.T) {
	odd := summarize([]float64{97, 79, 89})
	if odd.Value != 89 || odd.Min != 79 || odd.Max != 97 || odd.N != 3 {
		t.Errorf("summarize(odd) = %+v", odd)
	}
	even := summarize([]float64{4, 1, 3, 2})
	if even.Value != 2.5 || even.Min != 1 || even.Max != 4 || even.N != 4 {
		t.Errorf("summarize(even) = %+v", even)
	}
	// One wild repetition moves the mean, not the reported value.
	wild := summarize([]float64{88, 89, 90, 91, 400})
	if wild.Value != 90 {
		t.Errorf("median of repetitions = %v, want 90", wild.Value)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
	if r := ratio(1, 0); r != 0 || math.IsNaN(r) {
		t.Errorf("ratio(1, 0) = %v, want 0", r)
	}
}
