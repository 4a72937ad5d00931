package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns the nearest-rank q-quantile (0 < q <= 1); 0 for no samples.
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) p50() float64 { return s.pct(0.5) }

func (s samples) max() float64 { return s.pct(1) }

func (s samples) mean() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return ratio(sum, float64(len(s)))
}

// geomean returns the geometric mean of positive samples; 0 for none.
func (s samples) geomean() float64 {
	if len(s) == 0 {
		return 0
	}
	var logs float64
	for _, v := range s {
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(s)))
}

// minSamples is the sample count at which the q-quantile has at least ten
// samples beyond it, the rule every tail figure of the benchmark follows.
func minSamples(q float64) int { return int(math.Ceil(10/(1-q) - 1e-9)) }

// medianDuration returns the median of ds (the upper median for an even
// count, so it is always one of the measured values).
func medianDuration(ds []time.Duration) time.Duration {
	c := append([]time.Duration(nil), ds...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[len(c)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
