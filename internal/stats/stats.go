// Package stats collects the small numeric helpers shared by the experiment
// harness: the iterated logarithm log*, double logarithm, descriptive
// statistics, and least-squares fits used to report empirical growth rates.
package stats

import (
	"math"
	"sort"
)

// LogStarUndefined is the sentinel LogStar and LogStarFromLog2 return for
// non-finite input (+Inf or NaN), where the iterated logarithm has no
// meaningful value: math.Log2(+Inf) == +Inf, so iterating would never
// terminate. Callers normalizing by log* should clamp the sentinel away
// (e.g. with max(1, ·)).
const LogStarUndefined = -1

// LogStar returns log₂* x: the number of times log₂ must be iterated,
// starting from x, before the result is at most 1. By convention
// LogStar(x) = 0 for x <= 1; LogStar(+Inf) and LogStar(NaN) return
// LogStarUndefined.
//
// Reference values: LogStar(2)=1, LogStar(4)=2, LogStar(16)=3,
// LogStar(65536)=4, LogStar(2^65536)=5.
func LogStar(x float64) int {
	if math.IsInf(x, 1) || math.IsNaN(x) {
		return LogStarUndefined
	}
	n := 0
	for x > 1 {
		x = math.Log2(x)
		n++
	}
	return n
}

// LogStarFromLog2 returns log₂* of a value given as its base-2 logarithm.
// This lets callers evaluate log* of quantities too large for float64
// (e.g. Δ = 2^65536 is passed as log2Δ = 65536).
// LogStarFromLog2(y) == LogStar(2^y) for finite y > 0; non-finite input
// (+Inf or NaN) returns LogStarUndefined.
func LogStarFromLog2(log2x float64) int {
	if math.IsInf(log2x, 1) || math.IsNaN(log2x) {
		return LogStarUndefined
	}
	if log2x <= 0 {
		return 0 // x = 2^log2x <= 1
	}
	return 1 + LogStar(log2x)
}

// LogLogFromLog2 returns max(0, log₂ log₂ x) for a value x given as its
// base-2 logarithm y = log₂ x: 0 for x <= 2 (y <= 1), and finite for
// quantities whose direct float64 value would overflow.
func LogLogFromLog2(log2x float64) float64 {
	if log2x <= 1 {
		return 0
	}
	return math.Log2(log2x)
}

// Mean returns the arithmetic mean, 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum, -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum, +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation, 0 for fewer than two
// samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It returns 0 for an empty slice and
// clamps p into range.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }
