package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer samples is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// fails unless at least minBeyond samples lie above the returned one, so
// p90 needs 100 samples and p99 needs 1000.
func percentile(xs []float64, p float64) (float64, error) {
	v, beyond := quantile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%.0f of %d samples has %d beyond it, need %d", p*100, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// quantile returns the nearest-rank p-quantile of xs, NaN for no samples,
// and how many samples lie above it.
func quantile(xs []float64, p float64) (v float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(int(math.Ceil(p*float64(len(s)))), 1)
	if rank > len(s) {
		return math.NaN(), 0
	}
	return s[rank-1], len(s) - rank
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread criterion is stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// ratio divides, reading 0 when the denominator is 0: a layer the
// workload never enters has a zero share, not an undefined one.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
