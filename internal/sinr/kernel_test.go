package sinr

import (
	"math"
	"testing"
)

// mix is the splitmix64 output function; the tests step their state by
// the golden gamma and mix it, keeping the stream in registers.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const splitmixGamma = 0x9e3779b97f4a7c15

func samePow(t *testing.T, alpha, x float64) {
	got, want := Params{Alpha: alpha}.PowAlpha(x), math.Pow(x, alpha)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Helper()
		t.Fatalf("PowAlpha(%v [%#x]) at α=%g = %v [%#x], math.Pow %v [%#x]",
			x, math.Float64bits(x), alpha, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPowAlphaMatchesMathPow: the direct products equal math.Pow bit for bit
// on 10^7 log-uniform draws over [2^-260, 2^260] (every binade equally
// likely, all 52 mantissa bits random), on both sides of each guard
// boundary, on subnormals and on the special values, for α ∈ {2, 3, 4};
// fractional α falls through to math.Pow on the same inputs.
func TestPowAlphaMatchesMathPow(t *testing.T) {
	alphas := []float64{2, 3, 4}
	var special []float64
	for _, b := range []float64{powGuardLo, powGuardHi, 0x1p-256, 0x1p-254, 0x1p254, 0x1p256} {
		special = append(special, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	special = append(special, 0, math.Copysign(0, -1), 1, -1, -2.5, 0x1p-1022, 0x1p-1074, 0x1p-1060, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Nextafter(1, 0), math.Nextafter(1, 2))
	state := uint64(1)
	for k := 0; k < 1000; k++ {
		state += splitmixGamma
		special = append(special, math.Float64frombits(mix(state)&(1<<52-1))) // subnormal
	}
	for _, x := range special {
		for _, a := range append(alphas, 2.5, 3.5) {
			samePow(t, a, x)
		}
	}
	const draws = 10_000_000
	for k := 0; k < draws; k++ {
		state += splitmixGamma
		r := mix(state)
		e := int64(r>>52)%520 - 260 // binade exponent in [-260, 259]
		state += splitmixGamma
		x := math.Float64frombits(uint64(e+1023)<<52 | mix(state)&(1<<52-1))
		for _, a := range alphas {
			samePow(t, a, x)
		}
		if k%1000 == 0 {
			samePow(t, 3.5, x)
			samePow(t, 2.05, x)
		}
	}
}

// refMatVec is the textbook row loop MatVec replaces.
func refMatVec(y []float64, b [][]float64, x, init []float64) {
	for i := range b {
		s := 0.0
		if init != nil {
			s = init[i]
		}
		for j := range x {
			s += b[i][j] * x[j]
		}
		y[i] = s
	}
}

// TestMatVecMatchesRowLoop: every row of the blocked kernel rounds exactly
// like the row loop, for every size up to 40 (all remainders of the
// eight-row block), with and without an init vector, and with infinite
// entries that turn rows into Inf or NaN.
func TestMatVecMatchesRowLoop(t *testing.T) {
	state := uint64(7)
	u := func() float64 {
		state += splitmixGamma
		return float64(mix(state)>>11) / (1 << 53)
	}
	for n := 0; n <= 40; n++ {
		for _, withInit := range []bool{false, true} {
			b := make([][]float64, n)
			for i := range b {
				b[i] = make([]float64, n)
				for j := range b[i] {
					if i != j {
						b[i][j] = math.Exp(40 * (u() - 0.5))
					}
				}
			}
			if n >= 3 {
				b[1][2] = math.Inf(1)
			}
			x := make([]float64, n)
			for j := range x {
				x[j] = u()
			}
			if n >= 5 {
				x[4] = 0 // Inf·0 = NaN in any row reaching column 4 with an Inf
				b[2][4] = math.Inf(1)
			}
			var init []float64
			if withInit {
				init = make([]float64, n)
				for i := range init {
					init[i] = u()
				}
			}
			got, want := make([]float64, n), make([]float64, n)
			MatVec(got, b, x, init)
			refMatVec(want, b, x, init)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d init=%v row %d: %v, row loop %v", n, withInit, i, got[i], want[i])
				}
			}
		}
	}
}
