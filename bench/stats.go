package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the sample at
// or below it. An empty sample reads 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the highest of p90, p99, p99.9 and p99.99 that still has
// at least ten samples beyond it in a sample of n; below a hundred samples
// it falls back to the median, the only point such a sample supports.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, t := range []struct {
		q     float64
		oneIn int // a sample lies beyond q once in this many
	}{{0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}} {
		if n/t.oneIn >= 10 {
			best = t.q
		}
	}
	return best
}

// cappedQuantile reads the q-th quantile unless the sample is too small
// to leave ten samples beyond it, in which case it reads the highest
// quantile the sample supports.
func cappedQuantile(sorted []float64, q float64) float64 {
	return quantile(sorted, math.Min(q, tailQuantile(len(sorted))))
}

// summary is one reported value: the median over repetitions, with the
// smallest and largest repetition as its spread.
type summary struct {
	Value, Min, Max float64
	N               int
}

// summarize reduces one value per repetition to their median and range.
func summarize(perRep []float64) summary {
	if len(perRep) == 0 {
		return summary{}
	}
	s := append([]float64(nil), perRep...)
	sort.Float64s(s)
	mid := s[len(s)/2]
	if len(s)%2 == 0 {
		mid = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{Value: mid, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// sorted sorts v in place and returns it.
func sorted(v []float64) []float64 {
	sort.Float64s(v)
	return v
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work in the window).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
