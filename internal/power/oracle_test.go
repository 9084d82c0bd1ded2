package power

import (
	"fmt"
	"math"

	"aggrate/internal/geom"
	"aggrate/internal/sinr"
)

// refSolve is the textbook dense Solve the production path replaced: gains
// and base powers through math.Pow, a spectral screen that always runs all
// 100 steps, and a one-row-at-a-time mat-vec in both the screen and the
// Jacobi sweep. Solve must agree with it bit for
// bit, error text included, on every set of positive-length links.
// Non-finite gains are rejected with ErrNonFiniteGain before the screen.
func refSolve(links []geom.Link, p sinr.Params, opts SolveOptions) ([]float64, error) {
	opts.defaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(links)
	if n == 0 {
		return []float64{}, nil
	}
	b := refGainMatrix(links, p)
	for i := range b {
		for j, g := range b[i] {
			if math.IsInf(g, 0) || math.IsNaN(g) {
				return nil, fmt.Errorf("%w: link %d on link %d", ErrNonFiniteGain, j, i)
			}
		}
	}
	if rho := refSpectralRadius(b, 100); rho >= 1 {
		return nil, fmt.Errorf("%w (spectral radius %.6g)", ErrInfeasible, rho)
	}
	v := make([]float64, n)
	for i, l := range links {
		la := math.Pow(l.Length(), p.Alpha)
		v[i] = la
		if nf := (1 + p.Epsilon) * p.Beta * p.Noise * la; nf > v[i] {
			v[i] = nf
		}
	}
	cur := append([]float64(nil), v...)
	next := make([]float64, n)
	for it := 0; it < opts.MaxIters; it++ {
		var maxRel float64
		for i := 0; i < n; i++ {
			s := v[i]
			row := b[i]
			for j := 0; j < n; j++ {
				s += row[j] * cur[j]
			}
			next[i] = s
			rel := math.Abs(s-cur[i]) / s
			if rel > maxRel {
				maxRel = rel
			}
		}
		cur, next = next, cur
		if maxRel < opts.Tol {
			return cur, nil
		}
	}
	return nil, fmt.Errorf("power: Jacobi did not converge in %d iterations", opts.MaxIters)
}

// refGainMatrix is sinr.Params.GainMatrix with math.Pow for every power.
func refGainMatrix(links []geom.Link, p sinr.Params) [][]float64 {
	n := len(links)
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		liA := math.Pow(links[i].Length(), p.Alpha)
		for j := range b[i] {
			if j == i {
				continue
			}
			d := geom.SenderToReceiver(links[j], links[i])
			b[i][j] = p.Beta * liA / math.Pow(d, p.Alpha)
		}
	}
	return b
}

// refSpectralRadius is the spectral screen without its early exit, with the
// single-accumulator row loop.
func refSpectralRadius(b [][]float64, iters int) float64 {
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
		maxv := 0.0
		for i := 0; i < n; i++ {
			s := 0.0
			row := b[i]
			for j := 0; j < n; j++ {
				s += row[j] * x[j]
			}
			y[i] = s
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
			x[i] = y[i]*inv + 1e-300
		}
	}
	return radius
}
