package main

import (
	"math"
	"sort"
	"time"
)

// p99MinSamples is the smallest sample count for which a p99 is
// reported: at 1,000 samples at least ten lie beyond it, so it is a
// tail rather than the single slowest operation.
const p99MinSamples = 1000

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the steadiness check uses. Fewer than two values give that
// value (or NaN) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > m-2 {
			j = m - 2
		}
		delta := float64(i*m - j*n)
		q = append(q, (s[j-1]*(n-delta)+s[j]*delta)/n)
	}
	return q[0], q[2]
}

// spread is the quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// p99 returns the 99th percentile (nearest rank) of xs and true, or
// false when xs holds fewer than p99MinSamples values.
func p99(xs []float64) (float64, bool) {
	if len(xs) < p99MinSamples {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(0.99 * float64(len(s))))
	return s[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is one span's extent on a common clock.
type interval struct{ start, end time.Duration }

// unionLen returns the length of the union of ivs clipped to within,
// so overlapping children (pipelined waves, concurrent queue commands)
// are counted once and a child that outlives its parent counts only
// inside it.
func unionLen(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(span interval, children []interval) time.Duration {
	return span.end - span.start - unionLen(span, children)
}
