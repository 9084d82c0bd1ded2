package sinr

import (
	"math"

	"aggrate/internal/geom"
)

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
