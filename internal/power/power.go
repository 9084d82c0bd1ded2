// Package power implements the two power-control modes of the paper.
//
// Oblivious power schemes P_τ(i) = C·l_i^{τα} (Sec. 2) depend only on the
// link's own length: τ=0 is uniform power, τ=1 is linear power, and the
// square-root scheme τ=1/2 ("mean power") is the standard choice for the
// O(log log Δ)-schedule result. The constant C is fixed per instance so
// that the interference-limited assumption P(i) ≥ (1+ε)·β·N·l_i^α holds for
// every link.
//
// Global power control computes an explicit feasible assignment for a set of
// links scheduled in the same slot by solving the SINR linear system
// P = B·P + v (with B the normalized gain matrix and v a positive base
// vector) via Jacobi iteration, which converges exactly when the set is
// feasible under some power assignment (spectral radius ρ(B) < 1).
//
// Solve is dense: it builds the k×k gain matrix of a k-link slot once, then
// streams it through at most 100 power-iteration steps of the spectral
// screen (fewer once ρ(B) < 1 is certain) and one Jacobi sweep per
// iteration, every one of them sinr.MatVec, the eight-row blocked mat-vec.
// Gains and base powers go through sinr.Params.PowAlpha, which multiplies
// out α ∈ {2, 3, 4}. Both keep the rounding of the textbook loops, so the
// returned powers are bit-identical to the reference solver the tests keep
// (refSolve in oracle_test.go).
package power

import (
	"errors"
	"fmt"
	"math"

	"aggrate/internal/geom"
	"aggrate/internal/sinr"
)

// Scheme assigns transmission powers to a set of links as a pure function
// of the instance (an "oblivious" assignment in the paper's terminology).
type Scheme interface {
	// Name identifies the scheme in reports, e.g. "P_0.5".
	Name() string
	// Assign returns one power per link. The returned slice is freshly
	// allocated.
	Assign(links []geom.Link, p sinr.Params) ([]float64, error)
}

// Oblivious is the power scheme P_τ(i) = C·l_i^{τα}.
type Oblivious struct {
	// Tau is the exponent fraction τ ∈ [0, 1].
	Tau float64
}

var _ Scheme = Oblivious{}

// Uniform is P₀: every sender uses the same power.
func Uniform() Oblivious { return Oblivious{Tau: 0} }

// Linear is P₁: power proportional to l^α, equalizing received signal.
func Linear() Oblivious { return Oblivious{Tau: 1} }

// Mean is P_{1/2}, the square-root scheme behind the O(log log Δ) bound.
func Mean() Oblivious { return Oblivious{Tau: 0.5} }

// Name implements Scheme.
func (o Oblivious) Name() string { return fmt.Sprintf("P_%g", o.Tau) }

// Assign implements Scheme. The instance constant C is the smallest value
// that keeps every link interference-limited: C = (1+ε)·β·N·l_max^{(1-τ)α}
// when noise is present, and 1 in the noise-free model (where only power
// ratios matter).
func (o Oblivious) Assign(links []geom.Link, p sinr.Params) ([]float64, error) {
	if o.Tau < 0 || o.Tau > 1 {
		return nil, fmt.Errorf("power: tau %g outside [0,1]", o.Tau)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := 1.0
	if p.Noise > 0 {
		lmax := 0.0
		for _, l := range links {
			lmax = math.Max(lmax, l.Length())
		}
		c = (1 + p.Epsilon) * p.Beta * p.Noise * math.Pow(lmax, (1-o.Tau)*p.Alpha)
	}
	out := make([]float64, len(links))
	for i, l := range links {
		le := l.Length()
		if le <= 0 {
			return nil, fmt.Errorf("power: link %d has non-positive length", i)
		}
		out[i] = c * math.Pow(le, o.Tau*p.Alpha)
	}
	return out, nil
}

// SolveOptions tunes the global-power linear-system solver.
type SolveOptions struct {
	// MaxIters caps the Jacobi iterations (default 10_000).
	MaxIters int
	// Tol is the relative convergence tolerance (default 1e-12).
	Tol float64
}

func (s *SolveOptions) defaults() {
	if s.MaxIters <= 0 {
		s.MaxIters = 10_000
	}
	if s.Tol <= 0 {
		s.Tol = 1e-12
	}
}

// ErrInfeasible is returned by Solve when the link set admits no feasible
// power assignment (spectral radius of the gain matrix ≥ 1).
var ErrInfeasible = fmt.Errorf("power: set is infeasible under any power assignment")

// ErrNonFiniteGain is returned by Solve when the gain of one link on
// another is +Inf or NaN: a sender sits on another link's receiver (two
// adjacent tree links), or their distance is so small that d^α underflows
// to zero. No power assignment certifies such a pair, and the iteration
// would otherwise return non-finite powers.
var ErrNonFiniteGain = errors.New("power: non-finite gain")

// Solve computes a power assignment making the whole set feasible in one
// slot, for the global-power-control mode. It solves P = B·P + v by Jacobi
// iteration with v_i = max((1+ε)·β·N·l_i^α, l_i^α·scale): the fixed point
// satisfies every SINR constraint with strict slack and the
// interference-limited floor. Returns ErrInfeasible when ρ(B) ≥ 1 and
// ErrNonFiniteGain when some gain is not finite.
func Solve(links []geom.Link, p sinr.Params, opts SolveOptions) ([]float64, error) {
	opts.defaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(links)
	if n == 0 {
		return []float64{}, nil
	}
	// Base vector: noise floor with headroom, or a well-scaled positive
	// vector in the noise-free model. A zero-length link would get a zero
	// base power, which no SINR constraint can certify.
	v := make([]float64, n)
	for i, l := range links {
		le := l.Length()
		if !(le > 0) {
			return nil, fmt.Errorf("power: link %d has non-positive length", i)
		}
		la := p.PowAlpha(le)
		v[i] = la
		if nf := (1 + p.Epsilon) * p.Beta * p.Noise * la; nf > v[i] {
			v[i] = nf
		}
	}
	b := p.GainMatrix(links)
	gmin, err := checkGains(b)
	if err != nil {
		return nil, err
	}
	if rho, _ := screen(b, gmin); rho >= 1 {
		return nil, fmt.Errorf("%w (spectral radius %.6g)", ErrInfeasible, rho)
	}
	cur := append([]float64(nil), v...)
	next := make([]float64, n)
	for it := 0; it < opts.MaxIters; it++ {
		sinr.MatVec(next, b, cur, v)
		var maxRel float64
		for i, s := range next {
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

// checkGains returns ErrNonFiniteGain for the first entry of b, in row-major
// order, that is +Inf or NaN. Gains are non-negative, so one comparison per
// entry in a single pass over the matrix decides both. It also returns the
// smallest off-diagonal gain (+Inf for a 1×1 matrix), which screen needs.
func checkGains(b [][]float64) (float64, error) {
	gmin := math.Inf(1)
	for i, row := range b {
		for j, g := range row {
			if !(g <= math.MaxFloat64) {
				return 0, fmt.Errorf("%w: link %d on link %d", ErrNonFiniteGain, j, i)
			}
			if g < gmin && j != i {
				gmin = g
			}
		}
	}
	return gmin, nil
}

// screenSteps caps the spectral screen's power iteration, and screenSlack
// is the δ of its early exit.
const screenSteps, screenSlack = 100, 1e-6

// screen is Solve's spectral screen: power iteration on b from x = 1 with
// max-norm normalisation and a 1e-300 floor on every entry, so a reducible
// block keeps some mass. It returns the last estimate max_i (b·x)_i and the
// number of mat-vecs run; gmin is b's smallest off-diagonal entry. It stops
// at the first step whose Collatz–Wielandt bound certifies ρ(b) < 1, so the
// estimate is ≥ 1 exactly when that of all screenSteps steps is.
func screen(b [][]float64, gmin float64) (float64, int) {
	n := len(b)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	radius, guard := 0.0, false
	for step := 1; step <= screenSteps; step++ {
		sinr.MatVec(y, b, x, nil)
		maxv := 0.0
		for _, s := range y {
			if s > maxv {
				maxv = s
			}
		}
		if maxv == 0 {
			return 0, step
		}
		// The exit: y_i ≤ fl(θ·x_i) for every i, y = fl(b·x), θ = 1 − δ (a
		// NaN fails). Why the full iteration then ends below 1 too:
		//  - Monotonicity. In exact arithmetic, b·x ≤ w·x and b ≥ 0 give
		//    b·(b·x) ≤ w·(b·x), so x' = b·x/m again has b·x' ≤ w·x', and
		//    every later estimate is max(b·x') ≤ w·max(x') ≤ w < 1.
		//  - Rounding (u = 2⁻⁵³, γ_n = n·u/(1−n·u)). Each y_i sums n
		//    non-negative products, so it is within a factor 1 ± γ_n of
		//    (b·x)_i while no product underflows; normalising by fl(1/m)
		//    adds two roundings and keeps max(x) ≤ 1. So the check gives
		//    w = θ(1+u)/(1−γ_n), each later step widens w by at most
		//    (1+γ_n)(1+u)²/((1−γ_n)(1−u)²), and after the ≤ 99 steps left
		//    the estimate is < θ·exp(203γ_n + 401u) < 1 for n ≤ 2²⁴.
		//  - The floor. The argument needs the floor to change no entry and
		//    no product to underflow. Let c = gmin/R, R the step-1 maximum
		//    of b·1 (the largest row sum). Off the argmax a of x,
		//    (b·x)_i ≥ gmin·x_a while max(b·x) ≤ R·x_a, so every entry of x'
		//    but one is ≥ c(1−5γ_n), and that one is ≥ c times the
		//    second largest entry of x (for n = 2 the ratio of the two
		//    entries alternates between b₁₂/b₂₁ and 1). So every entry stays
		//    ≥ c²/2. The guard gmin ≥ 2⁻⁶⁰⁰, R ≤ 2⁶⁰⁰, c ≥ 2⁻²⁰⁰ keeps every
		//    entry ≥ 2⁻⁴⁰², where 1e-300 < 2⁻⁹⁹⁶ is below half an ulp, every
		//    off-diagonal product ≥ 2⁻¹⁰⁰² (normal) and every sum finite.
		//    Without the guard the screen runs all screenSteps steps.
		if step == 1 {
			guard = n <= 1<<24 && gmin >= 0x1p-600 && maxv <= 0x1p600 && maxv <= 0x1p200*gmin
		}
		certified := guard
		for i := 0; certified && i < n; i++ {
			certified = y[i] <= (1-screenSlack)*x[i]
		}
		if certified {
			return maxv, step
		}
		radius = maxv
		inv := 1 / maxv
		for i := range y {
			x[i] = y[i]*inv + 1e-300
		}
	}
	return radius, screenSteps
}
