package sinr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggrate/internal/geom"
)

// randLinks returns n links with senders and receivers uniform in a
// side×side square (deterministic in seed).
func randLinks(n int, side float64, seed int64) []geom.Link {
	r := rand.New(rand.NewSource(seed))
	links := make([]geom.Link, n)
	for i := range links {
		s := geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
		// Short links: receiver near the sender, so lengths (and margins)
		// spread over a realistic range.
		d := geom.Point{X: (r.Float64() - 0.5) * side / 20, Y: (r.Float64() - 0.5) * side / 20}
		links[i] = geom.NewLink(2*i, 2*i+1, s, s.Add(d))
	}
	return links
}

// clusterLinks returns n links bunched into a few tight clusters, the
// adversarial shape for grid aggregation (most mass in few cells).
func clusterLinks(n int, seed int64) []geom.Link {
	r := rand.New(rand.NewSource(seed))
	centers := []geom.Point{{X: 0, Y: 0}, {X: 1000, Y: 50}, {X: 400, Y: 900}}
	links := make([]geom.Link, n)
	for i := range links {
		c := centers[r.Intn(len(centers))]
		s := c.Add(geom.Point{X: r.NormFloat64() * 5, Y: r.NormFloat64() * 5})
		d := geom.Point{X: r.Float64() + 0.1, Y: r.Float64() + 0.1}
		links[i] = geom.NewLink(2*i, 2*i+1, s, s.Add(d))
	}
	return links
}

func fullSlot(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func randPowers(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.5 + r.Float64()*10
	}
	return p
}

// checkParity compares the engine against Params.Margin on one slot:
// identical feasibility verdict and margin within 1e-9 relative.
func checkParity(t *testing.T, p Params, links []geom.Link, idx []int, powers []float64) {
	t.Helper()
	eng := NewEngine(p, links)
	sc := NewEngineScratch()
	var st EngineStats
	got, err := eng.MarginSlot(idx, powers, sc, &st)
	if err != nil {
		t.Fatalf("MarginSlot: %v", err)
	}
	slotLinks := make([]geom.Link, len(idx))
	for k, i := range idx {
		slotLinks[k] = links[i]
	}
	want, err := p.Margin(slotLinks, powers)
	if err != nil {
		t.Fatalf("Margin: %v", err)
	}
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		if got != want {
			t.Fatalf("margin = %g, naive = %g", got, want)
		}
		return
	}
	if (got >= 1) != (want >= 1) {
		t.Fatalf("verdict mismatch: engine margin %g vs naive %g", got, want)
	}
	if rel := math.Abs(got-want) / math.Max(math.Abs(want), 1e-300); rel > 1e-9 {
		t.Fatalf("margin = %.17g, naive = %.17g (rel %.3g > 1e-9)", got, want, rel)
	}
	if st.Links != int64(len(idx)) {
		t.Fatalf("stats.Links = %d, want %d", st.Links, len(idx))
	}
	if st.NaivePairs != int64(len(idx))*int64(len(idx)-1) {
		t.Fatalf("stats.NaivePairs = %d, want m(m-1) = %d", st.NaivePairs, len(idx)*(len(idx)-1))
	}
}

// TestEngineMatchesMarginExactPath covers the small-slot cutoff: every size
// up to engineExactCutoff must match the naive oracle bit-for-bit in
// verdict and ≤1e-9 in margin, across exponents and noise regimes.
func TestEngineMatchesMarginExactPath(t *testing.T) {
	for _, alpha := range []float64{2.1, 3, 4} {
		for _, noise := range []float64{0, 0.03} {
			p := Params{Alpha: alpha, Beta: 2, Noise: noise, Epsilon: 0.5}
			for _, m := range []int{1, 2, 3, 8, 40, engineExactCutoff} {
				links := randLinks(m, 1000, int64(m)*7+int64(alpha*10))
				checkParity(t, p, links, fullSlot(m), randPowers(m, int64(m)))
			}
		}
	}
}

// TestEngineMatchesMarginGridPath forces the grid pyramid (m above
// engineExactCutoff) on uniform and clustered layouts, from the first grid
// size up to 1000 links; TestEngineSharedFrontierParity covers a slot of
// more than 2¹³ links.
func TestEngineMatchesMarginGridPath(t *testing.T) {
	for _, alpha := range []float64{2.1, 3, 4} {
		p := Params{Alpha: alpha, Beta: 1, Noise: 0, Epsilon: 0.5}
		for _, m := range []int{engineExactCutoff + 1, 2 * engineExactCutoff, 1000} {
			links := randLinks(m, 5000, int64(m)+int64(alpha))
			checkParity(t, p, links, fullSlot(m), randPowers(m, int64(m)+1))

			cl := clusterLinks(m, int64(m)+2)
			checkParity(t, p, cl, fullSlot(m), randPowers(m, int64(m)+3))
		}
	}
}

// TestEngineSharedFrontierParity pins the shared first pass (descendShared)
// on a slot of more than 2¹³ links, uniform and clustered: the margin equals
// the exact-all kernel's bit for bit, matches Params.Margin within 1e-9, and
// the verdict agrees with the naive oracle.
func TestEngineSharedFrontierParity(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic oracle on a large slot")
	}
	m := 1<<13 + 123
	p := Params{Alpha: 3, Beta: 1, Noise: 0, Epsilon: 0.5}
	layouts := map[string][]geom.Link{
		"uniform": randLinks(m, 20000, 31),
		"cluster": clusterLinks(m, 32),
	}
	for name, links := range layouts {
		powers := randPowers(m, 33)
		idx := fullSlot(m)
		eng := NewEngine(p, links)
		var st EngineStats
		shared, err := eng.MarginSlot(idx, powers, NewEngineScratch(), &st)
		if err != nil {
			t.Fatalf("%s: MarginSlot: %v", name, err)
		}
		if exact := exactSlotMargin(t, eng, idx, powers); shared != exact {
			t.Fatalf("%s: shared margin %.17g != exact-tier margin %.17g", name, shared, exact)
		}
		checkParity(t, p, links, idx, powers)
	}
}

// exactSlotMargin is the exact tier's margin for a slot, whatever its size:
// the symmetric exact-all kernel, which accumulates every row in naive slot
// order.
func exactSlotMargin(t testing.TB, e *Engine, idx []int, powers []float64) float64 {
	t.Helper()
	sc := NewEngineScratch()
	if err := e.gather(sc, idx, powers); err != nil {
		t.Fatalf("gather: %v", err)
	}
	var st EngineStats
	return e.exactAll(sc, len(idx), &st)
}

// FuzzMarginSlotMatchesExact pins the grid tier to the exact tier: on slots
// from just below engineExactCutoff to 2¹⁴ links, uniform or clustered, at
// α ∈ {2.1, 3, 4} with random powers and noise, MarginSlot returns the
// exact-all kernel's margin bit for bit (the returned margin always comes
// from an order-pinned exact row), and on slots of up to 2000 links it is
// within 1e-9 of Params.Margin. At α=2.1 every exact term is a math.Pow, so
// slots stop at 2¹²: a 2¹⁴ one takes ~15 s, past the fuzzer's hang limit.
func FuzzMarginSlotMatchesExact(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(4000), uint8(1), uint8(1))
	f.Add(int64(3), uint16(9000), uint8(0), uint8(2))
	f.Add(int64(4), uint16(20000), uint8(3), uint8(1))
	f.Add(int64(5), uint16(30000), uint8(2), uint8(2))
	f.Add(int64(6), uint16(45000), uint8(1), uint8(4))
	f.Add(int64(7), uint16(65535), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, layout, alphaSel uint8) {
		// Log-uniform slot size over [cutoff−16, 2¹⁴], or 2¹² at α=2.1.
		alpha := []float64{2.1, 3, 4}[alphaSel%3]
		lo, hi := float64(engineExactCutoff-16), float64(1<<14)
		if alpha == 2.1 {
			hi = 1 << 12
		}
		m := int(lo * math.Pow(hi/lo, float64(size)/math.MaxUint16))
		var links []geom.Link
		if layout&1 == 0 {
			links = randLinks(m, 100*math.Sqrt(float64(m)), seed)
		} else {
			links = clusterLinks(m, seed)
		}
		p := Params{Alpha: alpha, Beta: 1, Epsilon: 0.5}
		if layout&2 != 0 {
			p.Noise = 0.03
		}
		idx, powers := fullSlot(m), randPowers(m, seed^0x5bd1e995)
		e := NewEngine(p, links)
		var st EngineStats
		got, err := e.MarginSlot(idx, powers, NewEngineScratch(), &st)
		if err != nil {
			t.Fatalf("m=%d: MarginSlot: %v", m, err)
		}
		if want := exactSlotMargin(t, e, idx, powers); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("m=%d α=%g: margin %.17g, exact tier %.17g", m, p.Alpha, got, want)
		}
		if m <= 2000 {
			checkParity(t, p, links, idx, powers)
		}
	})
}

// TestEngineSubsetSlot verifies that slots referencing a strict subset of
// the engine's link set (the normal case: one schedule, many slots) index
// correctly.
func TestEngineSubsetSlot(t *testing.T) {
	p := DefaultParams()
	links := randLinks(500, 2000, 11)
	r := rand.New(rand.NewSource(12))
	idx := r.Perm(500)[:180]
	checkParity(t, p, links, idx, randPowers(180, 13))
}

// TestEngineLongLinks places links whose length rivals the deployment
// extent, so a link's own sender falls in a *far* pyramid node relative to
// its receiver — the self-mass-subtraction path of the far-field bound.
func TestEngineLongLinks(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	links := make([]geom.Link, 300)
	for i := range links {
		s := geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		d := geom.Point{X: (r.Float64() - 0.5) * 1500, Y: (r.Float64() - 0.5) * 1500}
		links[i] = geom.NewLink(2*i, 2*i+1, s, s.Add(d))
	}
	checkParity(t, DefaultParams(), links, fullSlot(300), randPowers(300, 22))
}

// TestEngineDegenerate covers the grid's bail-outs: co-located senders
// (zero extent) and a sender coinciding with another link's receiver
// (infinite interference, margin 0).
func TestEngineDegenerate(t *testing.T) {
	p := DefaultParams()
	// All senders at the origin: grid extent 0, exact fallback.
	links := make([]geom.Link, 100)
	for i := range links {
		links[i] = geom.NewLink(2*i, 2*i+1, geom.Point{},
			geom.Point{X: 1 + float64(i)*0.01, Y: 1})
	}
	checkParity(t, p, links, fullSlot(100), randPowers(100, 31))

	// links[1]'s sender sits exactly on links[0]'s receiver.
	links2 := randLinks(80, 100, 32)
	links2[1].S = links2[0].R
	eng := NewEngine(p, links2)
	var st EngineStats
	got, err := eng.MarginSlot(fullSlot(80), randPowers(80, 33), NewEngineScratch(), &st)
	if err != nil || got != 0 {
		t.Fatalf("coincident sender/receiver: margin=%g err=%v, want 0, nil", got, err)
	}
}

// TestEngineHandComputed mirrors the schedule test's hand-computed slot:
// two unit links at distance 10, uniform power, α=3, β=2 → margin 364.5.
func TestEngineHandComputed(t *testing.T) {
	p := Params{Alpha: 3, Beta: 2, Noise: 0, Epsilon: 0}
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{X: 10}, geom.Point{X: 11}),
	}
	eng := NewEngine(p, links)
	var st EngineStats
	got, err := eng.MarginSlot([]int{0, 1}, []float64{1, 1}, NewEngineScratch(), &st)
	if err != nil || math.Abs(got-364.5) > 1e-9 {
		t.Fatalf("margin = %g err = %v, want 364.5, nil", got, err)
	}
}

// TestEngineErrors: the engine must reproduce Params.Margin's error
// conditions (and messages) so the schedule wrapper's output is identical.
func TestEngineErrors(t *testing.T) {
	p := DefaultParams()
	links := randLinks(4, 100, 41)
	eng := NewEngine(p, links)
	sc := NewEngineScratch()
	var st EngineStats

	if _, err := eng.MarginSlot([]int{0, 1}, []float64{1}, sc, &st); err == nil ||
		!strings.Contains(err.Error(), "2 links but 1 powers") {
		t.Fatalf("length mismatch: err = %v", err)
	}
	_, err := eng.MarginSlot([]int{0, 1, 2}, []float64{1, -1, 1}, sc, &st)
	if err == nil || !strings.Contains(err.Error(), "non-positive power -1 on link 1") {
		t.Fatalf("bad power: err = %v", err)
	}
	want, werr := p.Margin([]geom.Link{links[0], links[1], links[2]}, []float64{1, -1, 1})
	if werr == nil || want != 0 || err.Error() != werr.Error() {
		t.Fatalf("error text diverges from naive: engine %q vs naive %q", err, werr)
	}
	if _, err := eng.MarginSlot([]int{0, 99}, []float64{1, 1}, sc, &st); err == nil {
		t.Fatal("out-of-range link index accepted")
	}
}

// TestEngineScratchReuse: buffers reused across slots of very different
// sizes must not leak state between calls.
func TestEngineScratchReuse(t *testing.T) {
	p := DefaultParams()
	links := randLinks(800, 3000, 51)
	eng := NewEngine(p, links)
	sc := NewEngineScratch()
	var st EngineStats
	sizes := []int{700, 12, 300, 1, 800, 90}
	for trial, m := range sizes {
		idx := fullSlot(m)
		pw := randPowers(m, int64(trial))
		got, err := eng.MarginSlot(idx, pw, sc, &st)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var fresh EngineStats
		want, err := eng.MarginSlot(idx, pw, NewEngineScratch(), &fresh)
		if err != nil || got != want {
			t.Fatalf("trial %d: reused scratch margin %g != fresh %g (err %v)", trial, got, want, err)
		}
	}
}

// TestEngineStatsAccumulate: Add must sum every counter and ExactPairsFrac
// must be exact-work over naive-work.
func TestEngineStatsAccumulate(t *testing.T) {
	a := EngineStats{Links: 1, ExactLinks: 2, ExactPairs: 3, NearPairs: 4,
		FarNodes: 5, RefinedLinks: 6, RefinedCells: 7, NaivePairs: 12}
	b := a
	b.Add(a)
	if b != (EngineStats{2, 4, 6, 8, 10, 12, 14, 24}) {
		t.Fatalf("Add = %+v", b)
	}
	if got := b.ExactPairsFrac(); got != float64(6+8)/24 {
		t.Fatalf("ExactPairsFrac = %g", got)
	}
	if (EngineStats{}).ExactPairsFrac() != 0 {
		t.Fatal("empty stats must have frac 0")
	}
}

// TestEngineStatsFracInvariant: the per-link distinct-pair accounting must
// keep ExactPairsFrac ≤ 1 on real engine runs — at the exact-path cutoff,
// on small slots just above it (the historical >1.0 regime), on a slot of
// 2¹³ links, and when stats are accumulated across repeated verification
// passes, as the γ-escalation retry loop does.
func TestEngineStatsFracInvariant(t *testing.T) {
	p := DefaultParams()
	var acc EngineStats
	c := engineExactCutoff
	for _, m := range []int{c, c + 1, c + 6, c + 16, c + 36, c + 86, 2 * c, 1000, 2500, 1 << 13} {
		links := randLinks(m, 2000, int64(m))
		eng := NewEngine(p, links)
		sc := NewEngineScratch()
		var st EngineStats
		if _, err := eng.MarginSlot(fullSlot(m), randPowers(m, int64(m)+5), sc, &st); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if f := st.ExactPairsFrac(); f > 1 {
			t.Fatalf("m=%d: ExactPairsFrac %g > 1 (stats %+v)", m, f, st)
		}
		if st.ExactPairs+st.NearPairs > st.NaivePairs {
			t.Fatalf("m=%d: pairs %d+%d exceed naive %d", m, st.ExactPairs, st.NearPairs, st.NaivePairs)
		}
		acc.Add(st)
		// A second pass over the same slot, accumulated like a γ retry.
		if _, err := eng.MarginSlot(fullSlot(m), randPowers(m, int64(m)+5), sc, &st); err != nil {
			t.Fatalf("m=%d retry: %v", m, err)
		}
		acc.Add(st)
	}
	if f := acc.ExactPairsFrac(); f > 1 {
		t.Fatalf("accumulated ExactPairsFrac %g > 1 (stats %+v)", f, acc)
	}
}

// TestEngineUnresolvedFallbackPairs: when interval arithmetic leaves no
// candidate, the grid slot falls back to the exact-all kernel, which
// supersedes every descent — its near pairs must not be counted on top of
// the m(m−1) exact pairs. Zero-length links whose senders coincide in pairs
// make every interval NaN (an infinite signal over an infinite
// interference), which is exactly that fallback.
func TestEngineUnresolvedFallbackPairs(t *testing.T) {
	m := engineExactCutoff + 44
	r := rand.New(rand.NewSource(61))
	links := make([]geom.Link, m)
	for i := range links {
		if i%2 == 1 {
			links[i] = geom.NewLink(2*i, 2*i+1, links[i-1].S, links[i-1].S)
			continue
		}
		s := geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		links[i] = geom.NewLink(2*i, 2*i+1, s, s)
	}
	idx, powers := fullSlot(m), randPowers(m, 62)
	e := NewEngine(DefaultParams(), links)
	var st EngineStats
	got, err := e.MarginSlot(idx, powers, NewEngineScratch(), &st)
	if err != nil {
		t.Fatalf("MarginSlot: %v", err)
	}
	if want := exactSlotMargin(t, e, idx, powers); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("margin %v, exact tier %v", got, want)
	}
	if st.ExactLinks != int64(m) || st.NearPairs != 0 {
		t.Fatalf("fallback stats %+v: want %d exact links and no near pairs", st, m)
	}
	if f := st.ExactPairsFrac(); f > 1 {
		t.Fatalf("ExactPairsFrac %g > 1 (stats %+v)", f, st)
	}
}

// spreadLinks returns m links of length 0.5–1.5 with senders uniform at a
// mean spacing of four link lengths — the shape of a feasible slot, whose
// links share a length class and are kept apart by the conflict graph.
func spreadLinks(m int, seed int64) []geom.Link {
	r := rand.New(rand.NewSource(seed))
	side := 4 * math.Sqrt(float64(m))
	links := make([]geom.Link, m)
	for i := range links {
		s := geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
		l, th := 0.5+r.Float64(), 2*math.Pi*r.Float64()
		links[i] = geom.NewLink(2*i, 2*i+1, s, s.Add(geom.Point{X: l * math.Cos(th), Y: l * math.Sin(th)}))
	}
	return links
}

// TestEngineFirstPassWorkBounded pins the work of the frontier-shared first
// pass, hardware-independently: pyramid nodes accepted as far (shared per
// cell, and screened per receiver) plus near-field pairs summed exactly,
// per link. A pass that stops screening, opens far nodes or walks a
// mis-sized grid exceeds the bound, which sits at 1.5× the measured count.
func TestEngineFirstPassWorkBounded(t *testing.T) {
	// The clustered layout packs each cluster into a few cells of a grid
	// sized for the whole extent, so its near field is a large share of the
	// slot; the bound pins that too.
	bounds := map[string]float64{ // 1.5 × the measured work per link
		"uniform/512":   1.5 * 77.4,
		"uniform/4096":  1.5 * 163.9,
		"uniform/16384": 1.5 * 177.9,
		"cluster/512":   1.5 * 170.0,
		"cluster/4096":  1.5 * 1365.1,
		"cluster/16384": 1.5 * 5461.5,
	}
	for _, m := range []int{512, 4096, 16384} {
		for _, layout := range []string{"uniform", "cluster"} {
			links := spreadLinks(m, int64(m))
			if layout == "cluster" {
				links = clusterLinks(m, int64(m))
			}
			e := NewEngine(DefaultParams(), links)
			sc := NewEngineScratch()
			if err := e.gather(sc, fullSlot(m), randPowers(m, int64(m)+1)); err != nil {
				t.Fatal(err)
			}
			if !e.buildGrid(sc, &sc.grid, m) {
				t.Fatalf("%s/%d: no grid", layout, m)
			}
			var st EngineStats
			e.descendShared(sc, &sc.grid, engineThetaLadder2[0], &st)
			var near int64
			for _, n := range sc.near[:m] {
				near += int64(n)
			}
			name := fmt.Sprintf("%s/%d", layout, m)
			work := float64(st.FarNodes+near) / float64(m)
			t.Logf("%s: far/link=%.1f near/link=%.1f work/link=%.1f (bound %.0f)", name,
				float64(st.FarNodes)/float64(m), float64(near)/float64(m), work, bounds[name])
			if work > bounds[name] {
				t.Errorf("%s: %.1f far nodes + near pairs per link, bound %.0f", name, work, bounds[name])
			}
		}
	}
}

// marginSink keeps benchmarked margins observable.
var marginSink float64

// BenchmarkMarginSlotBySize times both tiers per link across slot sizes on
// spreadLinks slots: the exact-all kernel and the grid tier (build, shared
// first pass, refinement, exact candidate rows). Their crossover sets
// engineExactCutoff.
func BenchmarkMarginSlotBySize(b *testing.B) {
	p := DefaultParams()
	for _, m := range []int{128, 256, 512, 1024, 4096, 16384} {
		links := spreadLinks(m, int64(m))
		e := NewEngine(p, links)
		idx, powers := fullSlot(m), randPowers(m, int64(m)+1)
		for _, tier := range []string{"exact", "grid"} {
			b.Run(fmt.Sprintf("%s/m=%d", tier, m), func(b *testing.B) {
				sc := NewEngineScratch()
				var st EngineStats
				for i := 0; i < b.N; i++ {
					if err := e.gather(sc, idx, powers); err != nil {
						b.Fatal(err)
					}
					if tier == "exact" || !e.buildGrid(sc, &sc.grid, m) {
						marginSink = e.exactAll(sc, m, &st)
					} else {
						marginSink = e.marginGrid(sc, &sc.grid, m, &st)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(m)), "ns/link")
			})
		}
	}
}

// BenchmarkMargin compares the naive O(m²) Margin with the engine on one
// large slot — the per-slot speedup layer 1+2 buy before slot parallelism.
func BenchmarkMargin(b *testing.B) {
	links := randLinks(4000, 20000, 61)
	powers := randPowers(4000, 62)
	idx := fullSlot(4000)
	p := DefaultParams()
	slotLinks := make([]geom.Link, len(idx))
	for k, i := range idx {
		slotLinks[k] = links[i]
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Margin(slotLinks, powers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		eng := NewEngine(p, links)
		sc := NewEngineScratch()
		var st EngineStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.MarginSlot(idx, powers, sc, &st); err != nil {
				b.Fatal(err)
			}
		}
	})
}
