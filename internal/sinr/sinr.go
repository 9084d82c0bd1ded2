// Package sinr implements the physical (SINR) model of interference from
// Sec. 2 of the paper.
//
// A transmission on link i, concurrent with a set S of links, succeeds under
// power assignment P iff
//
//	S_i ≥ β·(Σ_{j∈S\{i}} I_ji + N),           (1)
//
// where the received signal is S_i = P(i)/l_i^α, the interference of j on i
// is I_ji = P(j)/d_ji^α with d_ji = d(s_j, r_i), N ≥ 0 is ambient noise, and
// β > 0 is the SINR threshold. α > 2 is the path-loss exponent.
//
// The package provides
//   - per-set feasibility checks for a concrete power assignment,
//   - the relative-interference (affectance) form I_P(j,i) of the constraint,
//   - the paper's additive operator I(j,i) = min{1, l_j^α/d(i,j)^α} used by
//     Lemma 1 and Theorem 2, and
//   - the normalized gain matrix, whose spectral radius decides feasibility
//     under *arbitrary* power control (power.Solve screens it), and the
//     blocked mat-vec both power-control iterations run on.
package sinr

import (
	"fmt"
	"math"

	"aggrate/internal/geom"
)

// Params holds the physical-model constants.
type Params struct {
	// Alpha is the path-loss exponent; the analysis requires Alpha > 2.
	Alpha float64
	// Beta is the SINR decoding threshold β > 0.
	Beta float64
	// Noise is the ambient noise N ≥ 0. Zero models the interference-limited
	// regime directly.
	Noise float64
	// Epsilon is the interference-limited headroom: power assignments
	// guarantee P(i) ≥ (1+Epsilon)·β·N·l_i^α. Ignored when Noise == 0.
	Epsilon float64
}

// DefaultParams are the constants used throughout the experiments:
// α=3 (a standard outdoor exponent, >2 as required), β=2, no noise,
// 50% headroom.
func DefaultParams() Params {
	return Params{Alpha: 3, Beta: 2, Noise: 0, Epsilon: 0.5}
}

// Validate checks the model constraints the analysis relies on.
func (p Params) Validate() error {
	if !(p.Alpha > 2) {
		return fmt.Errorf("sinr: alpha must exceed 2, got %g", p.Alpha)
	}
	if !(p.Beta > 0) {
		return fmt.Errorf("sinr: beta must be positive, got %g", p.Beta)
	}
	if p.Noise < 0 {
		return fmt.Errorf("sinr: noise must be non-negative, got %g", p.Noise)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("sinr: epsilon must be non-negative, got %g", p.Epsilon)
	}
	return nil
}

// Signal returns S_i = power/l^α for a link of length l.
func (p Params) Signal(power, l float64) float64 {
	return power / math.Pow(l, p.Alpha)
}

// InterferenceAt returns I_ji = power_j / d_ji^α, the interference a sender
// transmitting with power_j at distance d_ji from a receiver imposes on it.
func (p Params) InterferenceAt(powerJ, dJI float64) float64 {
	return powerJ / math.Pow(dJI, p.Alpha)
}

// Feasible reports whether every link in S satisfies the SINR condition (1)
// when all of S transmits simultaneously under the given powers
// (power[k] is the transmit power of links[k]). It returns an error if the
// slices disagree in length or a power is non-positive.
func (p Params) Feasible(links []geom.Link, power []float64) (bool, error) {
	margin, err := p.Margin(links, power)
	if err != nil {
		return false, err
	}
	return margin >= 1, nil
}

// Margin returns the worst-case SINR margin of the set: the minimum over
// links i of SINR_i/β. The set is feasible iff the margin is ≥ 1.
// A set with a single link and zero noise has margin +Inf.
func (p Params) Margin(links []geom.Link, power []float64) (float64, error) {
	if len(links) != len(power) {
		return 0, fmt.Errorf("sinr: %d links but %d powers", len(links), len(power))
	}
	worst := math.Inf(1)
	for i, li := range links {
		if power[i] <= 0 {
			return 0, fmt.Errorf("sinr: non-positive power %g on link %d", power[i], i)
		}
		sig := p.Signal(power[i], li.Length())
		intf := p.Noise
		for j, lj := range links {
			if j == i {
				continue
			}
			intf += p.InterferenceAt(power[j], geom.SenderToReceiver(lj, li))
		}
		var m float64
		if intf == 0 {
			m = math.Inf(1)
		} else {
			m = sig / (p.Beta * intf)
		}
		if m < worst {
			worst = m
		}
	}
	return worst, nil
}

// AddOpSum returns I(i, S) = Σ_{j∈set} I(i, links[j]) for link i of length
// li, added in set order, and returns as soon as the partial sum reaches
// stop (+Inf sums the whole set). It is the pair loop of the Theorem-2
// refinement, with l_i hoisted by the caller.
func (p Params) AddOpSum(li float64, i geom.Link, links []geom.Link, set []int, stop float64) float64 {
	s := 0.0
	for _, j := range set {
		s += p.addOp(li, geom.LinkDist2(i, links[j]))
		if s >= stop {
			break
		}
	}
	return s
}

// addOp is I(j,i) from l_j and d2 = LinkDist2(j, i). The integer-α power is
// PowAlpha's, spelled out so that one call covers the whole term.
func (p Params) addOp(lj, d2 float64) float64 {
	d := math.Sqrt(d2)
	if d <= 0 {
		return 1
	}
	x := lj / d
	v, ok := powExact(x, p.Alpha)
	if !ok {
		v = math.Pow(x, p.Alpha)
	}
	if v > 1 {
		return 1
	}
	return v
}

// GainMatrix returns the normalized gain matrix B of the set, where
// B[i][j] = β·l_i^α/d_ji^α for j ≠ i and 0 on the diagonal. The SINR
// constraints with zero noise read componentwise P ≥ B·P; the set is
// feasible under some positive power assignment iff the spectral radius
// ρ(B) < 1 (Perron–Frobenius).
func (p Params) GainMatrix(links []geom.Link) [][]float64 {
	n := len(links)
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		liA := p.PowAlpha(links[i].Length())
		for j := range b[i] {
			if j == i {
				continue
			}
			d := geom.SenderToReceiver(links[j], links[i])
			b[i][j] = p.Beta * liA / p.PowAlpha(d)
		}
	}
	return b
}

// MatVec sets y[i] = init[i] + Σ_j b[i][j]·x[j] for every row of the square
// matrix b (init nil reads as zeros). Each row is summed from its init value
// in ascending j — the same rounding as the textbook row loop — but eight
// rows run at once against one load of x[j], with eight independent
// accumulators, so the sum is bound by load and multiply throughput instead
// of the latency of a single add chain. It is the mat-vec of power.Solve's
// spectral screen and of its Jacobi sweep.
func MatVec(y []float64, b [][]float64, x, init []float64) {
	n := len(x)
	i := 0
	for ; i+8 <= len(b); i += 8 {
		var acc [8]float64
		if init != nil {
			copy(acc[:], init[i:i+8])
		}
		dot8(&acc, b[i:i+8:i+8], x)
		copy(y[i:i+8], acc[:])
	}
	for ; i < len(b); i++ {
		row := b[i][:n]
		var s float64
		if init != nil {
			s = init[i]
		}
		for j, xj := range x {
			s += row[j] * xj
		}
		y[i] = s
	}
}

// dot8 adds rows[r]·x to acc[r] for eight rows. It is kept out of line so
// the register allocator sees only the loop: the eight row bases, x and the
// accumulators.
//
//go:noinline
func dot8(acc *[8]float64, rows [][]float64, x []float64) {
	n := len(x)
	r0, r1, r2, r3 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
	r4, r5, r6, r7 := rows[4][:n], rows[5][:n], rows[6][:n], rows[7][:n]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	s4, s5, s6, s7 := acc[4], acc[5], acc[6], acc[7]
	for j, xj := range x {
		s0 += r0[j] * xj
		s1 += r1[j] * xj
		s2 += r2[j] * xj
		s3 += r3[j] * xj
		s4 += r4[j] * xj
		s5 += r5[j] * xj
		s6 += r6[j] * xj
		s7 += r7[j] * xj
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
	acc[4], acc[5], acc[6], acc[7] = s4, s5, s6, s7
}

// powGuard bounds the inputs PowAlpha multiplies out directly: for x in
// [2^-255, 2^255] every power up to the fourth, and every intermediate
// square, is a normal float64.
const (
	powGuardLo = 0x1p-255
	powGuardHi = 0x1p255
)

// PowAlpha returns x^α, bit-identical to math.Pow(x, p.Alpha). For the
// integer exponents α ∈ {2, 3, 4} and x in [2^-255, 2^255] it multiplies
// directly: math.Pow takes an integer exponent by repeated squaring of x's
// mantissa with the binary exponent carried separately, so its products are
// x·x, (x·x)·x and (x·x)·(x·x) scaled by exact powers of two, which round
// the same way whenever no intermediate leaves the normal range. Every
// other input goes to math.Pow.
func (p Params) PowAlpha(x float64) float64 {
	if v, ok := powExact(x, p.Alpha); ok {
		return v
	}
	return math.Pow(x, p.Alpha)
}

// powExact is PowAlpha's direct-product path; ok is false where math.Pow
// must answer. It makes no call, so it inlines into pair loops.
func powExact(x, alpha float64) (v float64, ok bool) {
	if !(x >= powGuardLo && x <= powGuardHi) {
		return 0, false
	}
	x2 := x * x
	switch alpha {
	case 2:
		return x2, true
	case 3:
		return x2 * x, true
	case 4:
		return x2 * x2, true
	}
	return 0, false
}
