package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a tail read from fewer is one or two unlucky samples, not a distribution.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail applies the benchmark's percentile rule: the highest nearest-rank
// percentile, capped at capQ, that still has at least minBeyond samples above
// it. It never reports below the median: with fewer than 2·minBeyond samples
// no tail is supported and the median is returned with q = 0.5. q is the
// percentile reported, so a reader can tell p90 from a clamped tail.
func tail(xs []float64, capQ float64) (v, q float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	// Nearest rank i (1-based) has n−i samples above it.
	i := min(int(math.Ceil(capQ*float64(n))), n-minBeyond)
	if i <= (n+1)/2 {
		return median(xs), 0.5
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[i-1], float64(i) / float64(n)
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never runs).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
