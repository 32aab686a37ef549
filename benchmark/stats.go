package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark keeps its own percentile code instead of importing
// internal/stats: the ruler must not move when the code it measures does.

// windows is how many equal parts (by op index) every timed op sequence is
// split into. A window lasts about half a second at the commit that defined
// the benchmark: long enough to hold a whole GC cycle of pvserve and
// thousands of requests, short enough that a run has many of them.
const windows = 20

// minTail is how many samples must lie beyond a percentile before it is
// reported (choosing-metrics §1).
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample, or NaN for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// supported reports whether a sample of n values has at least minTail
// samples beyond its p-quantile.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minTail
}

// median returns the median of vs (mean of the middle pair for even counts)
// without reordering the caller's slice; NaN for an empty one.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quietShare places the reported value of a windowed timing: the decile of
// the per-window values on the quiet side (the 10th percentile of a
// lower-is-better timing, the 90th of a throughput). The sizing box is a few
// cores of a shared host whose neighbours slow it down for seconds at a time,
// and that noise has one sign: it never makes a window faster. A run reaches
// its quiet decile when a tenth of it was left alone, where the median needs
// half; a change to the program moves every window, so it moves this decile
// as it moves the median. Over four ten-seed sweeps the decile's run-to-run
// spread was a fifth smaller than the median's, a quarter on the noisiest
// (README.md, "How steady it is"). It is not the extreme: with 20 windows it
// lies between the second- and third-best.
const quietShare = 0.10

// windowed summarises per-window values. Spread, (Q3-Q1)/median, is the
// run's own estimate of how well a window's value repeats.
type windowed struct {
	Value  float64   `json:"value"` // the quiet decile
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"windows"`
}

func summarize(values []float64, higherBetter bool) windowed {
	s := sortedCopy(values)
	w := windowed{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Values: values}
	w.Value = quantile(s, quietShare)
	if higherBetter {
		w.Value = quantile(s, 1-quietShare)
	}
	if w.Median != 0 {
		w.Spread = (w.Q3 - w.Q1) / math.Abs(w.Median)
	}
	return w
}

// quantile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample, interpolating linearly between the two nearest ranks; NaN for an
// empty one. Used across windows, where there are too few values for
// nearest-rank; latencies inside a window use percentile.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// windowOf maps op i of an n-op sequence to its window.
func windowOf(i, n int) int {
	return i * windows / n
}

// sortedCopy returns vs ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// dueTime is when op i of an open-loop schedule at rate ops per second is
// due, relative to the schedule's start. Computed from i, never accumulated,
// so rounding cannot drift the schedule.
func dueTime(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
