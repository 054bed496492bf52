package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p % of the samples at or below
// it. It sorts a copy. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder are the percentiles a latency report may quote.
var tailLadder = []int{50, 75, 90, 95, 99}

// supportedTail returns the highest percentile of tailLadder that
// still has at least ten of n samples beyond it, or 0 when even the
// median does not (n < 20). A tail quoted above it is a handful of
// outliers, not a percentile.
func supportedTail(n int) float64 {
	best := 0
	for _, p := range tailLadder {
		if n*(100-p) >= 10*100 {
			best = p
		}
	}
	return float64(best)
}

// interval is a half-open span of time [start, end) measured from the
// recorder's epoch.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other (two ranks inside a codec at
// once) and may stick out of the parent; overlap is counted once and
// the overhang not at all.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered time.Duration
	cursor := parent.start
	for _, c := range cs {
		if c.start > cursor {
			cursor = c.start
		}
		if c.end > cursor {
			covered += c.end - cursor
			cursor = c.end
		}
	}
	return parent.end - parent.start - covered
}

// lanes assigns each interval the lowest lane on which it overlaps no
// earlier interval (intervals must be sorted by start). Spans recorded
// by R goroutines that each run sequentially come out on exactly R
// lanes.
func lanes(sorted []interval) []int {
	var free []time.Duration // free[l] is when lane l's last span ended
	out := make([]int, len(sorted))
	for i, iv := range sorted {
		lane := -1
		for l, end := range free {
			if end <= iv.start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(free)
			free = append(free, 0)
		}
		free[lane] = iv.end
		out[i] = lane
	}
	return out
}

// mbps is a throughput in 10^6 bytes per second; 0 when no time
// passed.
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// ratio is num/den, 0 when den is 0 — for hit ratios and the like on
// workloads that bypass the layer.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
