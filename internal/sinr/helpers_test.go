package sinr

import (
	"math"

	"aggrate/internal/geom"
)

// marginSlot is the cold evaluation of one slot: MarginSlotGrid with no
// grid offered, the grid it returns dropped.
func (e *Engine) marginSlot(idx []int, power []float64, sc *EngineScratch, st *EngineStats) (float64, error) {
	mg, _, _, err := e.MarginSlotGrid(idx, power, sc, st, nil)
	return mg, err
}

// MinPower returns β·N·l^α, the minimum power to decode over a link of
// length l in the absence of interference, and zero when Noise is zero.
func (p Params) MinPower(l float64) float64 {
	return p.Beta * p.Noise * math.Pow(l, p.Alpha)
}

// AddOp returns the paper's additive operator
// I(j,i) = min{1, l_j^α / d(i,j)^α}, where d(i,j) is the minimum endpoint
// distance between the links. Coinciding links (d = 0) give 1.
func (p Params) AddOp(j, i geom.Link) float64 {
	return p.addOp(j.Length(), geom.LinkDist2(j, i))
}

// FeasibleSomePower reports whether the set is feasible under *some* power
// assignment with zero noise: ρ(B) < 1 for the normalized gain matrix. The
// margin returned is 1/ρ(B) (∞ when ρ=0); margins > 1 mean feasible.
func (p Params) FeasibleSomePower(links []geom.Link) (bool, float64) {
	if len(links) <= 1 {
		return true, math.Inf(1)
	}
	r := SpectralRadius(p.GainMatrix(links), 100)
	if r == 0 {
		return true, math.Inf(1)
	}
	return r < 1, 1 / r
}

// SpectralRadius estimates the spectral radius of a non-negative square
// matrix by power iteration with max-norm normalization. For the
// irreducible-or-nearly-so gain matrices arising from link sets this
// converges quickly; iters=100 gives ~1e-10 accuracy on the experiment
// instances. A 0×0 or 1×1 all-zero matrix has radius 0.
func SpectralRadius(b [][]float64, iters int) float64 {
	n := len(b)
	if n == 0 {
		return 0
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	radius := 0.0
	for it := 0; it < iters; it++ {
		MatVec(y, b, x, nil)
		maxv := 0.0
		for _, s := range y {
			if s > maxv {
				maxv = s
			}
		}
		if maxv == 0 {
			return 0
		}
		radius = maxv
		inv := 1 / maxv
		for i := range y {
			// Keep a tiny floor so the iterate stays positive and can pick
			// up mass from any reducible block.
			x[i] = y[i]*inv + 1e-300
		}
	}
	return radius
}
