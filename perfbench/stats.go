package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder holds the percentiles a tail can be reported at.
var tailLadder = []float64{90, 99, 99.9}

// tail describes a latency tail on the report line: the highest rung of
// tailLadder with at least ten samples above it.
type tail struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value_ms"`
	N     int     `json:"samples"`
}

// tailOf picks the highest percentile on tailLadder that still has at
// least ten of the len(xs) samples above it, and its value. With fewer
// than 100 samples it falls back to the median.
func tailOf(xs []float64) tail {
	t := tail{Pct: 50, Value: median(xs), N: len(xs)}
	for _, p := range tailLadder {
		if float64(len(xs))*(1-p/100) >= 10 {
			t.Pct, t.Value = p, quantile(xs, p/100)
		}
	}
	return t
}

// tailMS is the tail_ms metric: always p90, which every workload's run
// supports with at least ten samples above it. Letting the percentile
// follow the sample count would make tail_ms change its meaning when a
// faster or slower program completes more or fewer reads in a run; the
// report line carries the highest supported percentile instead.
func tailMS(xs []float64) float64 { return quantile(xs, 0.9) }

// mixMean is the read latency of the mix: the mean over the mix's
// statements of each statement's median latency. A median taken over
// the pooled samples would sit on the border between two statements'
// latency clusters and jump between them from run to run; the mean of
// per-statement medians moves only when a statement's latency does.
func mixMean(byStmt map[string][]float64) float64 {
	if len(byStmt) == 0 {
		return 0
	}
	sum := 0.0
	for _, xs := range byStmt {
		sum += median(xs)
	}
	return sum / float64(len(byStmt))
}
