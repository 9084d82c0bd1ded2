package power

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/scenario"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
	"aggrate/internal/sinr"
)

// TestSolveRejectsNonPositiveLength: a zero-length link has no base power
// to scale, so Solve must refuse it with Oblivious.Assign's error instead of
// returning a zero power that Validate then rejects.
func TestSolveRejectsNonPositiveLength(t *testing.T) {
	zero := geom.NewLink(0, 1, geom.Point{}, geom.Point{})
	long := geom.NewLink(2, 3, geom.Point{X: 10}, geom.Point{X: 1})
	cases := []struct {
		name  string
		links []geom.Link
		want  string
	}{
		{"zero first", []geom.Link{zero, long}, "power: link 0 has non-positive length"},
		{"zero last", []geom.Link{long, zero}, "power: link 1 has non-positive length"},
		{"zero alone", []geom.Link{zero}, "power: link 0 has non-positive length"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Solve(c.links, sinr.DefaultParams(), SolveOptions{})
			if err == nil || err.Error() != c.want {
				t.Fatalf("Solve = %v, %v; want error %q", got, err, c.want)
			}
			if _, err := (Oblivious{}).Assign(c.links, sinr.DefaultParams()); err == nil || err.Error() != c.want {
				t.Fatalf("Assign error %v, want %q", err, c.want)
			}
		})
	}
}

// TestSolveRejectsNonFiniteGain: a sender on another link's receiver, or
// close enough that d^α underflows, gives an infinite gain. Solve and the
// reference must both refuse the set with ErrNonFiniteGain, naming the
// same pair, instead of returning +Inf/NaN powers with a nil error.
func TestSolveRejectsNonFiniteGain(t *testing.T) {
	p := sinr.Params{Alpha: 3, Beta: 2, Epsilon: 0.5}
	cases := []struct {
		name  string
		links []geom.Link
		want  string
	}{
		{
			"adjacent tree links",
			[]geom.Link{
				geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
				geom.NewLink(1, 2, geom.Point{X: 1}, geom.Point{X: 3}),
			},
			"power: non-finite gain: link 1 on link 0",
		},
		{
			"underflowing distance",
			[]geom.Link{
				geom.NewLink(0, 1, geom.Point{X: 1}, geom.Point{}),
				geom.NewLink(2, 3, geom.Point{X: 5}, geom.Point{X: 6}),
				geom.NewLink(4, 5, geom.Point{X: 1e-200}, geom.Point{X: -1}),
			},
			"power: non-finite gain: link 2 on link 0",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Solve(c.links, p, SolveOptions{})
			if !errors.Is(err, ErrNonFiniteGain) || err.Error() != c.want {
				t.Fatalf("Solve = %v, %v; want error %q", got, err, c.want)
			}
			if _, err := refSolve(c.links, p, SolveOptions{}); err == nil || err.Error() != c.want {
				t.Fatalf("refSolve error %v, want %q", err, c.want)
			}
		})
	}
}

// fuzzAlphas are the path-loss exponents the differential tests draw from:
// the three integer exponents PowAlpha multiplies out, two fractional ones
// that fall through to math.Pow, and α = 2, which Params.Validate rejects.
var fuzzAlphas = []float64{2, 2.05, 3, 3.5, 4}

// splitmix returns a splitmix64 stream of uniform draws in [0, 1).
func splitmix(seed uint64) func() float64 {
	return func() float64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
}

// fuzzSolveLinks draws n links with log-uniform lengths in [0.1, 10] at
// splitmix64-random positions in a 100×100 square. With coincide, link 0's
// sender is moved onto link n-1's receiver, which makes the gain of link 0
// on link n-1 infinite.
func fuzzSolveLinks(seed uint64, n int, coincide bool) []geom.Link {
	next := splitmix(seed)
	links := make([]geom.Link, n)
	for i := range links {
		s := geom.Point{X: 100 * next(), Y: 100 * next()}
		l := math.Pow(10, 2*next()-1)
		th := 2 * math.Pi * next()
		links[i] = geom.NewLink(2*i, 2*i+1, s, geom.Point{X: s.X + l*math.Cos(th), Y: s.Y + l*math.Sin(th)})
	}
	if coincide && n >= 2 {
		links[0].S = links[n-1].R
	}
	return links
}

// checkSolveMatchesReference runs Solve and refSolve on one fuzz case and
// requires bit-identical powers and identical error text. Odd modes scale β
// so the estimated spectral radius lands in [0.99, 1.01], where the set
// flips between infeasible, slowly converging and (with odd iters, a small
// iteration cap) non-converging. It returns Solve's error.
func checkSolveMatchesReference(t *testing.T, seed uint64, size, alphaSel, mode uint8, iters uint16, coincide, noisy bool) error {
	t.Helper()
	n := 1 + int(size)%40
	p := sinr.Params{Alpha: fuzzAlphas[int(alphaSel)%len(fuzzAlphas)], Beta: 2, Epsilon: 0.5}
	if noisy {
		p.Noise = 0.01
	}
	links := fuzzSolveLinks(seed, n, coincide)
	for _, l := range links {
		if !(l.Length() > 0) {
			return nil // refSolve predates the length check; see TestSolveRejectsNonPositiveLength
		}
	}
	if mode&1 == 1 {
		target := 0.99 + 0.02*float64(mode>>1)/127
		unit := p
		unit.Beta = 1
		if g := refSpectralRadius(refGainMatrix(links, unit), 100); g > 0 && !math.IsInf(g, 0) && !math.IsNaN(g) {
			p.Beta = target / g
		}
	}
	var opts SolveOptions
	if iters%2 == 1 {
		opts.MaxIters = 1 + int(iters)%512
	}
	got, gotErr := Solve(links, p, opts)
	want, wantErr := refSolve(links, p, opts)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("n=%d α=%g β=%g: Solve error %v, reference %v", n, p.Alpha, p.Beta, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("n=%d: %d powers, reference %d", n, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d α=%g β=%g: power[%d] = %v (%#x), reference %v (%#x)",
				n, p.Alpha, p.Beta, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return gotErr
}

// FuzzSolveMatchesReference: the row-blocked, integer-α Solve must be
// indistinguishable from the textbook dense solver.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(2), uint8(0), uint16(0), false, false)
	f.Add(uint64(2), uint8(16), uint8(4), uint8(255), uint16(0), false, false)
	f.Add(uint64(3), uint8(39), uint8(1), uint8(1), uint16(7), false, true)
	f.Add(uint64(4), uint8(9), uint8(3), uint8(129), uint16(0), true, false)
	f.Add(uint64(5), uint8(23), uint8(0), uint8(0), uint16(0), false, false)
	f.Fuzz(func(t *testing.T, seed uint64, size, alphaSel, mode uint8, iters uint16, coincide, noisy bool) {
		_ = checkSolveMatchesReference(t, seed, size, alphaSel, mode, iters, coincide, noisy)
	})
}

// TestSolveMatchesReferenceSweep walks the fuzz space systematically: every
// n in 1..40 (each remainder of the eight-row block), every α, raw and
// near-critical β, with and without an infinite gain. It also requires that
// the walk reaches every outcome: solved, infeasible, not converged and
// rejected parameters.
func TestSolveMatchesReferenceSweep(t *testing.T) {
	outcomes := map[string]int{}
	for size := uint8(0); size < 40; size++ {
		for a := range fuzzAlphas {
			for _, mode := range []uint8{0, 1, 127, 255} {
				seed := uint64(size)*97 + uint64(a)*13 + uint64(mode)
				err := checkSolveMatchesReference(t, seed, size, uint8(a), mode, uint16(size), size%5 == 0, size%3 == 0)
				switch {
				case err == nil:
					outcomes["solved"]++
				case errors.Is(err, ErrInfeasible):
					outcomes["infeasible"]++
				case strings.Contains(err.Error(), "did not converge"):
					outcomes["not converged"]++
				default:
					outcomes["rejected"]++
				}
			}
		}
	}
	for _, o := range []string{"solved", "infeasible", "not converged", "rejected"} {
		if outcomes[o] == 0 {
			t.Errorf("sweep never reached outcome %q (outcomes %v)", o, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// gridLinks returns m×m unit links on a grid of pitch 3: a strongly
// coupled set whose power iteration converges fast.
func gridLinks(m int) []geom.Link {
	var links []geom.Link
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			s := geom.Point{X: 3 * float64(i), Y: 3 * float64(j)}
			links = append(links, geom.NewLink(2*len(links), 2*len(links)+1, s, geom.Point{X: s.X + 1, Y: s.Y}))
		}
	}
	return links
}

// farLinkSet is a 3×3 grid plus one link 1e97 away, so that the far
// link's gains on the grid sit near 1e-290: far below the screen's floor
// guard, in the range where the reference's 1e-300 floor matters.
func farLinkSet() []geom.Link {
	links := gridLinks(3)
	return append(links, geom.NewLink(2*len(links), 2*len(links)+1,
		geom.Point{X: 1e97}, geom.Point{X: 1e97, Y: 1e85}))
}

// TestSolveMatchesReferenceAtScreenBoundary scales β so the reference
// spectral radius lands just below 1, around the early exit's slack δ, and
// just above 1. Solve must match refSolve bit for bit (error text
// included), and the exit must fire exactly where the slack allows: for a
// radius of 1 − 2δ or less, never above 1 − δ, and never on the far-link
// set, whose floor guard fails.
func TestSolveMatchesReferenceAtScreenBoundary(t *testing.T) {
	const delta = screenSlack
	sets := []struct {
		name  string
		links []geom.Link
		guard bool
	}{
		{"grid", gridLinks(5), true},
		{"far link", farLinkSet(), false},
	}
	for _, set := range sets {
		unit := sinr.Params{Alpha: 3, Beta: 1, Epsilon: 0.5}
		g := refSpectralRadius(refGainMatrix(set.links, unit), screenSteps)
		for _, target := range []float64{0.5, 1 - 2*delta, 1 - delta, 1 - delta/2, 1 - 1e-12, 1 + 1e-12} {
			p := unit
			p.Beta = target / g
			ref := refSpectralRadius(refGainMatrix(set.links, p), screenSteps)
			if math.Abs(ref-target) > 1e-13 {
				t.Fatalf("%s: reference radius %v, want %v", set.name, ref, target)
			}
			got, gotErr := Solve(set.links, p, SolveOptions{})
			want, wantErr := refSolve(set.links, p, SolveOptions{})
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s ρ=%v: Solve error %v, reference %v", set.name, target, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s ρ=%v: %d powers, reference %d", set.name, target, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s ρ=%v: power[%d] = %v, reference %v", set.name, target, i, got[i], want[i])
				}
			}
			_, steps := screenLinks(t, set.links, p)
			fired := steps < screenSteps
			t.Logf("%s ρ=%v: %d screen steps, Solve error %v", set.name, target, steps, gotErr)
			switch {
			case !set.guard || target > 1-delta:
				if fired {
					t.Errorf("%s ρ=%v: exit fired at step %d", set.name, target, steps)
				}
			case target <= 1-2*delta:
				if !fired {
					t.Errorf("%s ρ=%v: exit never fired", set.name, target)
				}
			}
		}
	}
}

// screenTargets are the spectral radii FuzzScreenMatchesReference scales
// its matrices to: well inside, around the early exit's slack, and on
// either side of 1.
var screenTargets = []float64{0.5, 1 - 4*screenSlack, 1 - 2*screenSlack, 1 - screenSlack,
	1 - screenSlack/2, 1 - 1e-12, 1, 1 + 1e-12, 1 + screenSlack}

// checkScreenMatchesReference draws an n×n non-negative matrix with
// entries 2^e·(1+r), e uniform in [−spread, spread] (spread ≤ 600), and
// shape bits for zero rows (every third row, bit 0), a reducible block
// structure (no entry from the second half of the columns into the first
// half of the rows, bit 1), about half the entries zero (bit 2) and a
// non-zero diagonal (bit 3). A non-zero target scales it so the reference
// radius is about screenTargets[target-1]. The screen's verdict must equal
// the full reference iteration's, and where the screen ran all its steps,
// or hit a zero iterate, its estimate must be the reference's bit for bit.
// It returns whether the early exit fired and whether the verdict was ρ ≥ 1.
func checkScreenMatchesReference(t *testing.T, seed uint64, size uint8, spread uint16, shape, target uint8) (fired, infeasible bool) {
	t.Helper()
	n := 1 + int(size)%40
	e := int(spread % 601)
	next := splitmix(seed)
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			g := math.Ldexp(1+next(), int(math.Floor(float64(2*e+1)*next()))-e)
			switch {
			case i == j && shape&8 == 0,
				shape&1 != 0 && i%3 == 1,
				shape&2 != 0 && i < n/2 && j >= n/2,
				shape&4 != 0 && next() < 0.5:
				g = 0
			}
			b[i][j] = g
		}
	}
	if target != 0 {
		if g := refSpectralRadius(b, screenSteps); g > 0 && g <= math.MaxFloat64 {
			scale := screenTargets[int(target-1)%len(screenTargets)] / g
			for _, row := range b {
				for j := range row {
					row[j] *= scale
				}
			}
		}
	}
	gmin, err := checkGains(b)
	if err != nil {
		return false, false // Solve rejects the set before the screen
	}
	rho, steps := screen(b, gmin)
	want := refSpectralRadius(b, screenSteps)
	if (rho >= 1) != (want >= 1) {
		t.Fatalf("n=%d spread=%d shape=%d: screen estimate %v after %d steps, reference %v",
			n, e, shape, rho, steps, want)
	}
	if (steps == screenSteps || rho == 0) && math.Float64bits(rho) != math.Float64bits(want) {
		t.Fatalf("n=%d spread=%d shape=%d: screen ran %d steps to %v, reference %v", n, e, shape, steps, rho, want)
	}
	return steps < screenSteps && rho > 0, rho >= 1
}

// FuzzScreenMatchesReference: the early-exit screen must reach the full
// 100-step iteration's verdict on any non-negative matrix, including zero
// rows, reducible blocks and gains from 2⁻⁶⁰⁰ to 2⁶⁰⁰.
func FuzzScreenMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint16(0), uint8(0), uint8(3))
	f.Add(uint64(2), uint8(24), uint16(8), uint8(0), uint8(5))
	f.Add(uint64(3), uint8(39), uint16(600), uint8(0), uint8(1))
	f.Add(uint64(4), uint8(15), uint16(40), uint8(1), uint8(4))
	f.Add(uint64(5), uint8(20), uint16(3), uint8(2), uint8(2))
	f.Add(uint64(6), uint8(31), uint16(200), uint8(4), uint8(7))
	f.Add(uint64(7), uint8(2), uint16(100), uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, spread uint16, shape, target uint8) {
		_, _ = checkScreenMatchesReference(t, seed, size, spread, shape, target)
	})
}

// TestScreenMatchesReferenceSweep walks the screen fuzz space: small and
// huge gain spreads, every shape and every target, and requires that the
// walk reaches every outcome: an early exit, a full feasible run and an
// infeasible verdict.
func TestScreenMatchesReferenceSweep(t *testing.T) {
	outcomes := map[string]int{}
	for size := uint8(0); size < 40; size += 3 {
		for _, spread := range []uint16{0, 4, 60, 600} {
			for shape := uint8(0); shape < 16; shape++ {
				for target := uint8(0); target <= uint8(len(screenTargets)); target++ {
					seed := uint64(size)*7919 + uint64(spread)*31 + uint64(shape)*5 + uint64(target)
					fired, infeasible := checkScreenMatchesReference(t, seed, size, spread, shape, target)
					switch {
					case fired:
						outcomes["early exit"]++
					case infeasible:
						outcomes["infeasible"]++
					default:
						outcomes["full run"]++
					}
				}
			}
		}
	}
	for _, o := range []string{"early exit", "full run", "infeasible"} {
		if outcomes[o] == 0 {
			t.Errorf("sweep never reached outcome %q (outcomes %v)", o, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

var (
	clusterSlotOnce sync.Once
	clusterSlot     []geom.Link
	benchPowers     []float64
)

// clusterSlotLinks returns the largest slot of the greedy arb-graph
// schedule of the cluster preset at n=10,000, seed 1: the kind of slot the
// global-power path solves. Any prefix of it is a feasible set too.
func clusterSlotLinks(tb testing.TB) []geom.Link {
	var err error
	clusterSlotOnce.Do(func() {
		var spec scenario.Spec
		if spec, err = scenario.Lookup("cluster"); err != nil {
			return
		}
		var tree *mst.Tree
		if tree, err = mst.NewMSTTree(spec.Generate(10_000, 1), 0); err != nil {
			return
		}
		var strat scheduler.Strategy
		if strat, err = scheduler.Lookup(scheduler.Greedy); err != nil {
			return
		}
		cfg := scheduler.Config{Graph: scheduler.GraphArbitrary, Gamma: 2, SINR: sinr.DefaultParams()}
		var sched *schedule.Schedule
		if sched, _, err = strat.Schedule(context.Background(), tree.Links, cfg); err != nil {
			return
		}
		var largest []int
		for _, slot := range sched.Slots {
			if len(slot) > len(largest) {
				largest = slot
			}
		}
		for _, i := range largest {
			clusterSlot = append(clusterSlot, tree.Links[i])
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(clusterSlot) < 1024 {
		tb.Fatalf("largest cluster slot has %d links, want ≥ 1024", len(clusterSlot))
	}
	return clusterSlot
}

// screenLinks runs Solve's spectral screen on the gain matrix of links.
func screenLinks(tb testing.TB, links []geom.Link, p sinr.Params) (float64, int) {
	tb.Helper()
	b := p.GainMatrix(links)
	gmin, err := checkGains(b)
	if err != nil {
		tb.Fatal(err)
	}
	return screen(b, gmin)
}

// TestScreenStepsOnClusterSlot: on the cluster slot, whose gain matrices
// are far from critical, the screen certifies ρ < 1 within a few steps
// instead of running all 100. On a set whose smallest gain fails the floor
// guard, it must run all 100.
func TestScreenStepsOnClusterSlot(t *testing.T) {
	slot := clusterSlotLinks(t)
	p := sinr.DefaultParams()
	for _, k := range []int{16, 256, 1024, len(slot)} {
		rho, steps := screenLinks(t, slot[:k], p)
		t.Logf("k=%d: estimate %.6g after %d steps", k, rho, steps)
		if rho >= 1 || steps > 12 {
			t.Errorf("k=%d: estimate %g after %d steps, want < 1 within 12", k, rho, steps)
		}
	}
	far := farLinkSet()
	rho, steps := screenLinks(t, far, p)
	if want := refSpectralRadius(refGainMatrix(far, p), screenSteps); steps != screenSteps || rho != want {
		t.Errorf("far-link set: estimate %v after %d steps, want the reference %v after %d", rho, steps, want, screenSteps)
	}
}

// BenchmarkSolve times Solve on k-link prefixes of a cluster slot and
// divides by the multiply-adds of its dense mat-vecs (the spectral-screen
// steps the solve ran plus the Jacobi sweeps to convergence, k² each). The
// resulting ns/madd also carries the gain-matrix build, amortized; it
// compares across slot sizes and machines where ns/op does not.
func BenchmarkSolve(b *testing.B) {
	slot := clusterSlotLinks(b)
	p := sinr.DefaultParams()
	for _, k := range []int{16, 256, 1024} {
		links := slot[:k]
		// The Jacobi sweep count is the smallest iteration cap that converges.
		lo, hi := 1, 10_000
		if _, err := Solve(links, p, SolveOptions{MaxIters: hi}); err != nil {
			b.Fatalf("k=%d: %v", k, err)
		}
		for lo < hi {
			mid := (lo + hi) / 2
			if _, err := Solve(links, p, SolveOptions{MaxIters: mid}); err == nil {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		_, steps := screenLinks(b, links, p)
		madds := float64(k) * float64(k) * float64(steps+lo)
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := Solve(links, p, SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				benchPowers = out
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*madds), "ns/madd")
		})
	}
}
