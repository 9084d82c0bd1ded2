package stats

import "math"

// LogLog returns max(0, log₂ log₂ x); 0 for x <= 2.
func LogLog(x float64) float64 {
	if x <= 2 {
		return 0
	}
	return math.Log2(math.Log2(x))
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It is used to report empirical growth exponents, e.g. fitting
// log(schedule length) against log log Δ. Degenerate inputs (fewer than two
// points, or zero variance in x) return slope 0 and intercept Mean(y).
func LinearFit(x, y []float64) (slope, intercept float64) {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0, Mean(y)
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}
