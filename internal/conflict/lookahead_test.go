package conflict

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/rng"
)

// clusterLinks generates the MST links of a clustered pointset: k dense
// clusters spread far apart, so intra-cluster links are short and the
// cluster-bridging links are orders of magnitude longer.
func clusterLinks(t testing.TB, n int, seed uint64) []geom.Link {
	t.Helper()
	r := rng.New(seed)
	const k = 8
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{X: r.Float64() * 1e5, Y: r.Float64() * 1e5}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[int(r.Uint64()%k)]
		pts[i] = geom.Point{X: c.X + r.Float64()*50, Y: c.Y + r.Float64()*50}
	}
	tree, err := mst.NewMSTTree(pts, 0)
	if err != nil {
		t.Fatalf("NewMSTTree: %v", err)
	}
	return tree.Links
}

// lookaheadFamilies are the three threshold families of the paper in
// factored (γ, h) form, with the arbitrary-power graph at the pathological
// α=2.05 (exponent 40).
func lookaheadFamilies() []Family {
	return []Family{
		GammaFamily(),
		PowerLawFamily(0.5),
		LogThresholdFamily(2.05),
	}
}

// escalationLadder mirrors the experiment loop's γ schedule: start at γ₀ and
// multiply by step, computing each rung (and the lookahead ceiling) by
// iterated multiplication so the floats match the runtime's exactly.
func escalationLadder(gamma0, step float64, retries int) []float64 {
	ladder := []float64{gamma0}
	g := gamma0
	for i := 0; i < retries; i++ {
		g *= step
		ladder = append(ladder, g)
	}
	return ladder
}

// TestLookaheadMatchesBuild is the lookahead's parity wall: one
// strength-annotated build at the escalation ceiling, filtered down to every
// ladder rung, must be bit-identical — CSR arrays and strengths — to a
// direct build at that rung and to the O(n²) oracle, for all three
// threshold families over uniform, cluster, and annulus geometry.
func TestLookaheadMatchesBuild(t *testing.T) {
	cases := []struct {
		name  string
		links []geom.Link
	}{
		{"uniform-500", mstLinks(t, 500, 21, 1000)},
		{"cluster-400", clusterLinks(t, 400, 22)},
		{"annulus-400", annulusLinks(t, 400, 23)},
	}
	ladder := escalationLadder(0.8, 1.5, 4)
	gammaMax := ladder[len(ladder)-1]
	for _, tc := range cases {
		for _, fam := range lookaheadFamilies() {
			full := build(t, tc.links, fam, gammaMax)
			if full.Strengths == nil || len(full.Strengths) != len(full.Neighbors) {
				t.Fatalf("%s/%s: Strengths not parallel to Neighbors: %d vs %d",
					tc.name, fam.Name, len(full.Strengths), len(full.Neighbors))
			}
			for _, gamma := range ladder {
				filtered, err := full.FilterCtx(context.Background(), fam.At(gamma), gamma)
				if err != nil {
					t.Fatalf("%s/%s γ=%g: FilterCtx: %v", tc.name, fam.Name, gamma, err)
				}
				label := tc.name + "/" + fam.Name
				graphsEqual(t, buildNaiveLookahead(tc.links, fam, gamma), filtered, label+"/oracle")
				graphsEqual(t, build(t, tc.links, fam, gamma), filtered, label+"/direct")
			}
		}
	}
}

// TestStrengthIsExactBoundary pins the definition of conflict strength: for
// every annotated edge, the exact strength q is the float64 boundary of the
// monotone predicate — the pair conflicts under fam.At(q) and, for q > 0,
// not under fam.At(prevfloat(q)) — and the stored strength is roundUp32(q),
// the float32 boundary: the pair conflicts at it and not at the float32
// below it. That is what makes "filter by q ≤ γ" reproduce the direct build
// at every γ.
func TestStrengthIsExactBoundary(t *testing.T) {
	links := annulusLinks(t, 300, 24)
	for _, fam := range lookaheadFamilies() {
		full := build(t, links, fam, 8)
		checked := 0
		for i := 0; i < full.N(); i++ {
			row := full.Row(i)
			qs := full.Strengths[full.RowPtr[i]:full.RowPtr[i+1]]
			for k, j := range row {
				q := pairStrength(fam, links[i], links[j], 8)
				if q < 0 || q > 8 {
					t.Fatalf("%s: edge (%d,%d) strength %g outside [0, γmax]", fam.Name, i, j, q)
				}
				if qs[k] != roundUp32(q) {
					t.Fatalf("%s: edge (%d,%d) stores strength %g, want roundUp32(%g)", fam.Name, i, j, qs[k], q)
				}
				for _, b := range []struct {
					at, below float64
				}{
					{q, math.Float64frombits(math.Float64bits(q) - 1)},
					{float64(qs[k]), float64(math.Nextafter32(qs[k], float32(math.Inf(-1))))},
				} {
					if !Conflicting(fam.At(b.at), links[i], links[j]) {
						t.Fatalf("%s: edge (%d,%d) does not conflict at its own strength %g", fam.Name, i, j, b.at)
					}
					if b.at > 0 && Conflicting(fam.At(b.below), links[i], links[j]) {
						t.Fatalf("%s: edge (%d,%d) already conflicts at %g, below its strength %g", fam.Name, i, j, b.below, b.at)
					}
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no edges checked — fixture too sparse", fam.Name)
		}
	}
}

// TestLookaheadGraphFor covers the caching handle: the first call per link
// set builds, subsequent calls reuse via the filter scan, a γ at the ceiling
// is served by the annotated build directly, and a different link set gets
// its own build rather than a stale cache hit.
func TestLookaheadGraphFor(t *testing.T) {
	links := mstLinks(t, 400, 25, 1000)
	other := mstLinks(t, 400, 26, 1000)
	fam := GammaFamily()
	ladder := escalationLadder(1, 1.5, 2)
	la := NewLookahead(ladder[len(ladder)-1])

	g0, st0, err := la.GraphFor(context.Background(), links, fam, ladder[0])
	if err != nil {
		t.Fatalf("GraphFor: %v", err)
	}
	if st0.Reused || st0.BuildSec <= 0 {
		t.Fatalf("first call must build: %+v", st0)
	}
	graphsEqual(t, buildNaiveLookahead(links, fam, ladder[0]), g0, "first")

	for _, gamma := range ladder[1:] {
		g, st, err := la.GraphFor(context.Background(), links, fam, gamma)
		if err != nil {
			t.Fatalf("GraphFor(γ=%g): %v", gamma, err)
		}
		if !st.Reused || st.BuildSec != 0 {
			t.Fatalf("γ=%g: expected cache reuse, got %+v", gamma, st)
		}
		graphsEqual(t, buildNaiveLookahead(links, fam, gamma), g, "reused")
	}

	// Different link content: must not be served by the first build.
	gOther, stOther, err := la.GraphFor(context.Background(), other, fam, ladder[0])
	if err != nil {
		t.Fatalf("GraphFor(other): %v", err)
	}
	if stOther.Reused {
		t.Fatal("distinct link set reported as reused")
	}
	graphsEqual(t, buildNaiveLookahead(other, fam, ladder[0]), gOther, "other")

	// Above the ceiling: correct (direct) build, not a cache hit.
	gHigh, stHigh, err := la.GraphFor(context.Background(), links, fam, la.GammaMax()*2)
	if err != nil {
		t.Fatalf("GraphFor(high): %v", err)
	}
	if stHigh.Reused {
		t.Fatal("out-of-coverage γ reported as reused")
	}
	graphsEqual(t, buildNaiveLookahead(links, fam, la.GammaMax()*2), gHigh, "high")
}

// TestFilterCtxCancel: a canceled context must surface as (nil, err) from
// the filter scan, never as a partially filtered graph.
func TestFilterCtxCancel(t *testing.T) {
	links := mstLinks(t, 2000, 27, 1000)
	fam := GammaFamily()
	full, err := BuildLookaheadCtx(context.Background(), links, fam, 4)
	if err != nil {
		t.Fatalf("BuildLookaheadCtx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := full.FilterCtx(ctx, fam.At(2), 2)
	if err == nil || g != nil {
		t.Fatalf("FilterCtx on canceled ctx: got (%v, %v), want (nil, ctx error)", g, err)
	}
}

// TestFilterRequiresStrengths: filtering a graph without strengths (a
// FromAdj test graph) is a programming error and must fail loudly instead of
// returning an empty graph.
func TestFilterRequiresStrengths(t *testing.T) {
	links := mstLinks(t, 200, 28, 1000)
	g := FromAdj(links, Gamma(2), make([][]int32, len(links)))
	if _, err := g.FilterCtx(context.Background(), Gamma(1), 1); err == nil {
		t.Fatal("FilterCtx on a strength-free graph succeeded; want error")
	}
}

// FuzzLookaheadMatchesBuild extends the build-parity fuzz wall to the
// lookahead path: on adversarial small instances (int8 lattice points, ~23
// dyadic length classes, α≈2 radii), the graph filtered from one annotated
// build at the ladder ceiling must match both a direct build and the O(n²)
// oracle at every ladder rung, for all three factored families. Degenerate
// inputs must be refused with ErrDegenerate at the ceiling and every rung.
// The ladder starts at 0.8, so no rung is a float32, and the filter is also
// checked against the oracle at one pair's exact float64 strength and its
// two float64 neighbours: both put the filter's float32 recheck to work.
func FuzzLookaheadMatchesBuild(f *testing.F) {
	f.Add(pathologicalSeed())
	f.Add([]byte{4, 0, 0, 1, 0, 8, 0, 0, 1, 0, 8, 5, 0, 2, 0, 8, 5, 0, 2, 0, 8})
	f.Add([]byte{8, 10, 10, 3, 4, 2, 10, 10, 3, 4, 14, 250, 250, 1, 1, 8, 0, 0, 100, 100, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		links := fuzzLinks(data)
		ladder := escalationLadder(0.8, 1.5, 3)
		gammaMax := ladder[len(ladder)-1]
		for _, fam := range lookaheadFamilies() {
			full := checkBuild(t, links, fam, gammaMax)
			for _, gamma := range ladder {
				direct := checkBuild(t, links, fam, gamma) // checked against the oracle
				if full == nil {
					continue // degenerate at the ceiling: each rung checks its own refusal
				}
				if direct == nil {
					t.Fatalf("%s: degenerate at γ=%g but not at the ceiling %g on %v", fam.Name, gamma, gammaMax, links)
				}
				filtered, err := full.FilterCtx(context.Background(), fam.At(gamma), gamma)
				if err != nil {
					t.Fatalf("%s γ=%g: FilterCtx: %v", fam.Name, gamma, err)
				}
				graphsEqual(t, direct, filtered, fmt.Sprintf("%s γ=%g", fam.Name, gamma))
			}
			if full == nil || full.Edges() == 0 {
				continue
			}
			// A pair's exact strength can be small enough for the direct
			// build to refuse its cells as degenerate; the filter must
			// still match the oracle there.
			for _, gamma := range strengthNeighborhood(full, fam, gammaMax, int(data[len(data)-1])) {
				label := fmt.Sprintf("%s γ=%v (pair strength)", fam.Name, gamma)
				filtered, err := full.FilterCtx(context.Background(), fam.At(gamma), gamma)
				if err != nil {
					t.Fatalf("%s: FilterCtx: %v", label, err)
				}
				graphsEqual(t, buildNaiveLookahead(links, fam, gamma), filtered, label)
				if direct := checkBuild(t, links, fam, gamma); direct != nil {
					graphsEqual(t, direct, filtered, label+"/direct")
				}
			}
		}
	})
}

// TestLookaheadSequenceMatchesOracle drives one Lookahead through a seeded
// random sequence of GraphFor calls — three families, link sets of 0, 1 and
// a few hundred links, a content-equal copy of one set, and γ below, at and
// above the ceiling or exactly at some pair's exact or stored strength (the
// filter's two boundaries) — and checks every answer against the O(n²)
// oracle (CSR arrays and strengths) and its Reused flag against a model of
// the cache:
// a call is served from the cache exactly when its γ is covered and a
// covered call for the same family and link content came before.
func TestLookaheadSequenceMatchesOracle(t *testing.T) {
	uniform := mstLinks(t, 300, 41, 1000)
	sets := []struct {
		id    int // content identity: copies share it
		links []geom.Link
	}{
		{0, nil},
		{1, uniform[:1]},
		{2, uniform},
		{2, append([]geom.Link(nil), uniform...)},
		{3, clusterLinks(t, 250, 42)},
		{4, annulusLinks(t, 200, 43)},
	}
	fams := lookaheadFamilies()
	ladder := escalationLadder(0.8, 1.5, 3)
	ceiling := ladder[len(ladder)-1]
	gammas := append([]float64{0.5, ceiling * 1.5}, ladder...)
	type key struct {
		fam string
		id  int
	}
	built := map[key]bool{}
	la := NewLookahead(ceiling)
	r := rng.New(44)
	for step := 0; step < 150; step++ {
		set := sets[r.Intn(len(sets))]
		fam := fams[r.Intn(len(fams))]
		gamma := ceiling
		if k := r.Intn(len(gammas) + 1); k < len(gammas) {
			gamma = gammas[k]
		} else {
			// Some pair's exact strength, which the filter's recheck
			// decides, or its stored float32, which the compare decides.
			var qs []float64
			o := buildNaiveLookahead(set.links, fam, ceiling)
			for i := 0; i < o.N(); i++ {
				for _, j := range o.Row(i) {
					if int32(i) > j {
						continue
					}
					if q := pairStrength(fam, set.links[i], set.links[j], ceiling); q > 0 {
						qs = append(qs, q, float64(roundUp32(q)))
					}
				}
			}
			if len(qs) > 0 {
				gamma = qs[r.Intn(len(qs))]
			}
		}
		label := fmt.Sprintf("step %d: set %d/%d links, %s γ=%g", step, set.id, len(set.links), fam.Name, gamma)
		g, st, err := la.GraphFor(context.Background(), set.links, fam, gamma)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		graphsEqual(t, buildNaiveLookahead(set.links, fam, gamma), g, label)
		k := key{fam.Name, set.id}
		covered := gamma <= ceiling
		if want := covered && built[k]; st.Reused != want {
			t.Fatalf("%s: Reused = %v, want %v", label, st.Reused, want)
		}
		if covered {
			built[k] = true
		}
	}
}

// strengthNeighborhood returns the exact float64 strength q of the pick-th
// edge of g (modulo the edge count), g built under fam at ceiling, and the
// float64s on either side of q — the γ values at which that pair's stored
// float32 strength leaves the filter's decision to its recheck. Values
// outside (0, ceiling] are dropped: γ = 0 is degenerate.
func strengthNeighborhood(g *Graph, fam Family, ceiling float64, pick int) []float64 {
	var edges []edge
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Row(i) {
			edges = append(edges, edge{int32(i), j})
		}
	}
	e := edges[pick%len(edges)]
	q := pairStrength(fam, g.Links[e.i], g.Links[e.j], ceiling)
	out := []float64{q, math.Nextafter(q, 0), math.Nextafter(q, math.Inf(1))}
	return slices.DeleteFunc(out, func(gamma float64) bool { return !(gamma > 0 && gamma <= ceiling) })
}

// denseLinks places n links of length 20–120 at random angles from senders
// uniform in a side×side square — an overlapping instance whose conflict
// graph has mean degree in the hundreds at γ ≈ 2.
func denseLinks(n int, seed uint64, side float64) []geom.Link {
	r := rng.New(seed)
	links := make([]geom.Link, n)
	for i := range links {
		a := geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
		l := 20 + 100*r.Float64()
		th := 2 * math.Pi * r.Float64()
		links[i] = geom.NewLink(2*i, 2*i+1, a, geom.Point{X: a.X + l*math.Cos(th), Y: a.Y + l*math.Sin(th)})
	}
	return links
}

// TestFilterFloat32Window pins the filter's recheck of the entries whose
// float32 strength brackets γ. On a dense and a uniform instance, for all
// three families (the arbitrary-power one at α=3), FilterCtx from one
// annotated build at γ=4 must equal a
// direct build and the O(n²) oracle (naiveLadder) at γ values off the
// float32 grid: 2.1,
// 3·(1+2⁻⁴⁰) (just above the float32 3), and sampled pairs' exact float64
// strengths with their float64 neighbours. Each sampled strength is itself
// off the float32 grid, so at q and just below it the pair's own entry is
// decided by the recheck alone: dropping the recheck, or keeping every
// bracketing entry, fails here.
func TestFilterFloat32Window(t *testing.T) {
	const ceiling = 4
	cases := []struct {
		name  string
		links []geom.Link
	}{
		{"dense/7x1", denseLinks(700, 1, 200)},
		{"uniform-2000", mstLinks(t, 2000, 61, 1000)},
	}
	r := rng.New(62)
	for _, tc := range cases {
		for _, fam := range []Family{GammaFamily(), PowerLawFamily(0.5), LogThresholdFamily(3)} {
			full := build(t, tc.links, fam, ceiling)
			oracle := naiveLadder(tc.links, fam, ceiling)
			gammas := []float64{2.1, 3 * (1 + math.Ldexp(1, -40))}
			for sampled := 0; sampled < 2; {
				nb := strengthNeighborhood(full, fam, ceiling, r.Intn(max(full.Edges(), 1)))
				if q := nb[0]; len(nb) == 3 && float64(roundUp32(q)) != q {
					gammas = append(gammas, nb...)
					sampled++
				}
			}
			for _, gamma := range gammas {
				if float64(float32(gamma)) == gamma {
					t.Fatalf("γ=%g is a float32: it does not exercise the recheck", gamma)
				}
				label := fmt.Sprintf("%s/%s γ=%v", tc.name, fam.Name, gamma)
				filtered, err := full.FilterCtx(context.Background(), fam.At(gamma), gamma)
				if err != nil {
					t.Fatalf("%s: FilterCtx: %v", label, err)
				}
				graphsEqual(t, build(t, tc.links, fam, gamma), filtered, label+"/direct")
				graphsEqual(t, oracle(gamma), filtered, label+"/oracle")
			}
		}
	}
}

// naiveLadder runs the pairwise scan of buildNaiveLookahead once at the
// ceiling and returns its graph at any γ ≤ ceiling: a pair that does not
// conflict at the ceiling conflicts at no smaller γ (the predicate is
// monotone in γ), and each ceiling edge's pair test is evaluated afresh at
// γ from its stored d², l_min and h.
func naiveLadder(links []geom.Link, fam Family, ceiling float64) func(gamma float64) *Graph {
	type pair struct {
		e            edge
		d2, lmin, hx float64
	}
	var pairs []pair
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			lmin, lmax := geom.MinMaxLen(links[i], links[j])
			hx := fam.H(lmax / lmin)
			thr := lmin * (ceiling * hx)
			if d2 := geom.LinkDist2(links[i], links[j]); d2 <= thr*thr {
				pairs = append(pairs, pair{edge{int32(i), int32(j)}, d2, lmin, hx})
			}
		}
	}
	return func(gamma float64) *Graph {
		var edges []edge
		qs := []float64{}
		for _, p := range pairs {
			if thr := p.lmin * (gamma * p.hx); p.d2 <= thr*thr {
				edges = append(edges, p.e)
				qs = append(qs, strengthOf(p.d2, p.lmin, p.hx, gamma))
			}
		}
		return oracleCSR(links, fam.At(gamma), edges, qs)
	}
}

// BenchmarkFilter times one FilterCtx down an escalation rung (γ=4.5 to
// γ=3, both float32s, so every entry is decided by the compare alone) on
// n=20000 uniform MST links under G_γ: the scan the γ-retry path runs in
// place of a rebuild.
func BenchmarkFilter(b *testing.B) {
	links := mstLinks(b, 20000, 55, 5000)
	fam := GammaFamily()
	full := build(b, links, fam, 4.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := full.FilterCtx(context.Background(), fam.At(3), 3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(full.Edges()), "edges")
}
