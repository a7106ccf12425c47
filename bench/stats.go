package main

import (
	"math"
	"sort"
)

// Summary is how every metric is reported: sample count, median,
// quartiles, and the highest percentile that still has at least ten
// samples beyond it (TailP is 0 when the sample is too small for any).
type Summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TailP  int     `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

// quantile is the one rule the benchmark uses for medians, quartiles and
// percentiles: the value at rank q*(n+1) of the sorted sample, linearly
// interpolated, with the rank clamped so both neighbours exist. It is the
// "exclusive" method of Python's statistics.quantiles, which the driver
// that judges this benchmark applies to the per-run values, so -compare
// and the driver agree on every spread. sorted must be ascending.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	d := pos - float64(j)
	return sorted[j-1]*(1-d) + sorted[j]*d
}

// quantileOf is quantile over an unsorted sample.
func quantileOf(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, q)
}

// tailPercentiles are the percentiles a report may quote, ascending.
var tailPercentiles = []int{75, 90, 95, 99}

// tailPercentile returns the highest reportable percentile with at least
// ten samples beyond it, or 0 when even p75 has fewer.
func tailPercentile(n int) int {
	best := 0
	for _, p := range tailPercentiles {
		if float64(n)*float64(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

func summarize(unit string, values []float64) Summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	out := Summary{Unit: unit, N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailP, out.Tail = p, quantile(s, float64(p)/100)
	}
	return out
}

// scaled is the summary of the same sample with every value multiplied by
// the positive factor f.
func (s Summary) scaled(f float64) Summary {
	s.Median, s.Q1, s.Q3, s.Tail = s.Median*f, s.Q1*f, s.Q3*f, s.Tail*f
	return s
}

// spread is the distance between the quartiles as a share of the median —
// the run-to-run noise a bound is compared with.
func (s Summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
