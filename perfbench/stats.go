package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one slow request, not a tail.
const minBeyond = 10

// tailSamples is the fewest samples a p99 may rest on: 1000 leave
// minBeyond above it.
const tailSamples = 1000

// quantile returns the q-quantile (0 <= q <= 1) of sorted, linearly
// interpolated between the closest ranks. It is 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// beyond reports how many of n samples lie strictly above the
// q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantiles are the percentiles a tail figure may be reported at,
// highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailQuantile picks the highest percentile in tailQuantiles that
// leaves at least minBeyond samples above it (0.5 when none does).
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points dividing xs into quarters,
// computed as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so a spread computed here matches one
// computed there. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	d := sortedCopy(xs)
	ld := len(d)
	if ld < 2 {
		return 0, 0, 0, false
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// spread is the distance between the first and third quartile of xs
// as a share of their median — the run-to-run noise a bound must
// exceed.
func spread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}

// maxBlocks bounds how many consecutive blocks a phase's samples are
// split into. The end-to-end figures are medians over blocks, so a
// stall — a collection cycle, or the host stealing the CPU — moves the
// blocks it falls in, not the figure.
const maxBlocks = 16

// minLatencySamples is how many queries a closed loop completes before
// it may stop: enough for four blocks with a p99 each.
const minLatencySamples = 4 * tailSamples

// splitBlocks splits xs (in completion order) into at most maxBlocks
// consecutive blocks of at least minSize samples each, each sorted; with
// fewer than 2*minSize samples there is one block.
func splitBlocks(xs []float64, minSize int) [][]float64 {
	b := max(1, min(maxBlocks, len(xs)/max(minSize, 1)))
	out := make([][]float64, b)
	for i := range out {
		out[i] = sortedCopy(xs[i*len(xs)/b : (i+1)*len(xs)/b])
	}
	return out
}

// blockMedian applies f to each block of xs (see splitBlocks) and
// returns the median of the results.
func blockMedian(xs []float64, minSize int, f func(sorted []float64) float64) float64 {
	bs := splitBlocks(xs, minSize)
	vals := make([]float64, len(bs))
	for i, b := range bs {
		vals[i] = f(b)
	}
	return median(vals)
}

// blockRate is the median completion rate over at most maxBlocks
// consecutive blocks of completion times ats (seconds since the phase
// began, ascending): each block's count over the time since the
// previous block ended.
func blockRate(ats []float64) float64 {
	b := min(maxBlocks, len(ats))
	if b == 0 {
		return 0
	}
	rates := make([]float64, 0, b)
	prev := 0.0
	for i := 0; i < b; i++ {
		lo, hi := i*len(ats)/b, (i+1)*len(ats)/b
		end := ats[hi-1]
		if end > prev {
			rates = append(rates, float64(hi-lo)/(end-prev))
		}
		prev = end
	}
	return median(rates)
}
