package main

import (
	"math"
	"sort"
)

// summary is how a timed metric is reported: median, quartiles and sample
// count.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between order statistics (the "inclusive" method: q=0 is the minimum,
// q=1 the maximum). It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// tailPercentile returns the highest of p50, p90, p99, p99.9, p99.99 that
// still has at least ten samples beyond it — the percentile a latency is
// reported at. With fewer than a hundred samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		p     float64
		every int // one sample in this many lies beyond p
	}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}} {
		if n/c.every >= 10 {
			best = c.p
		}
	}
	return best
}

// worsening is how much worse got is than base, as a share of base, for a
// metric whose better direction is given: positive means worse.
func worsening(base, got float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (got - base) / math.Abs(base)
	if better == higher {
		return -d
	}
	return d
}
