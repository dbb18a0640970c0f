package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile:
// a p90 over 40 samples rests on 4 values and moves with every outlier.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or
// NaN for an empty slice. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the middle sample, or the mean of the two middle samples of
// an even count: of two passes, the nearest-rank median is the faster
// one, which moves from run to run far more than the middle of three.
// NaN for an empty slice; xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 || n == 0 {
		return percentile(xs, 0.5)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSupported reports whether the q-quantile of n samples has at least
// minTail samples beyond it.
func tailSupported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minTail
}

// samplesFor is the smallest sample count whose q-quantile has minTail
// samples beyond it (100 for p90).
func samplesFor(q float64) int {
	n := minTail
	for !tailSupported(n, q) {
		n++
	}
	return n
}

// interval is one timed span: [start, end).
type interval struct{ start, end time.Time }

// selfTime is the part of parent not covered by any child interval.
// Children may overlap each other (parallel cells, hedged RPCs) and may
// stick out of the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.end.Sub(parent.start)
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return total - covered
}

// ms and secs convert durations to the report's float units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// msAll converts a duration sample set to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
