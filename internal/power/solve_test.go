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

// fuzzAlphas are the path-loss exponents the differential tests draw from:
// the three integer exponents PowAlpha multiplies out, two fractional ones
// that fall through to math.Pow, and α = 2, which Params.Validate rejects.
var fuzzAlphas = []float64{2, 2.05, 3, 3.5, 4}

// fuzzSolveLinks draws n links with log-uniform lengths in [0.1, 10] at
// splitmix64-random positions in a 100×100 square. With coincide, link 0's
// sender is moved onto link n-1's receiver, which makes the gain of link 0
// on link n-1 infinite.
func fuzzSolveLinks(seed uint64, n int, coincide bool) []geom.Link {
	next := func() float64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
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

var (
	clusterSlotOnce sync.Once
	clusterSlot     []geom.Link
	benchPowers     []float64
)

// clusterSlotLinks returns the largest slot of the greedy arb-graph
// schedule of the cluster preset at n=10,000, seed 1: the kind of slot the
// global-power path solves. Any prefix of it is a feasible set too.
func clusterSlotLinks(b *testing.B) []geom.Link {
	clusterSlotOnce.Do(func() {
		spec, err := scenario.Lookup("cluster")
		if err != nil {
			b.Fatal(err)
		}
		tree, err := mst.NewMSTTree(spec.Generate(10_000, 1), 0)
		if err != nil {
			b.Fatal(err)
		}
		strat, err := scheduler.Lookup(scheduler.Greedy)
		if err != nil {
			b.Fatal(err)
		}
		cfg := scheduler.Config{Graph: scheduler.GraphArbitrary, Gamma: 2, SINR: sinr.DefaultParams()}
		sched, _, err := strat.Schedule(context.Background(), tree.Links, cfg)
		if err != nil {
			b.Fatal(err)
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
	return clusterSlot
}

// BenchmarkSolve times Solve on k-link prefixes of a cluster slot and
// divides by the multiply-adds of its dense mat-vecs (100 spectral-screen
// steps plus the Jacobi sweeps to convergence, k² each). The resulting
// ns/madd also carries the gain-matrix build, amortized; it compares
// across slot sizes and machines where ns/op does not.
func BenchmarkSolve(b *testing.B) {
	slot := clusterSlotLinks(b)
	p := sinr.DefaultParams()
	for _, k := range []int{16, 256, 1024} {
		if k > len(slot) {
			b.Fatalf("largest cluster slot has %d links, want ≥ %d", len(slot), k)
		}
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
		madds := float64(k) * float64(k) * float64(100+lo)
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
