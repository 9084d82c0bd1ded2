package conflict

import (
	"context"
	"fmt"
	"math"
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
// every annotated edge with strength q > 0, the pair conflicts under
// fam.At(q) and does NOT conflict under fam.At(prevfloat(q)) — q is the
// exact float64 boundary of the monotone predicate, which is what makes
// "filter by q ≤ γ" reproduce the direct build at every γ.
func TestStrengthIsExactBoundary(t *testing.T) {
	links := annulusLinks(t, 300, 24)
	for _, fam := range lookaheadFamilies() {
		full := build(t, links, fam, 8)
		checked := 0
		for i := 0; i < full.N(); i++ {
			row := full.Row(i)
			qs := full.Strengths[full.RowPtr[i]:full.RowPtr[i+1]]
			for k, j := range row {
				if int32(i) > j {
					continue // each undirected edge once
				}
				q := qs[k]
				if q < 0 || q > 8 {
					t.Fatalf("%s: edge (%d,%d) strength %g outside [0, γmax]", fam.Name, i, j, q)
				}
				if !Conflicting(fam.At(q), links[i], links[j]) {
					t.Fatalf("%s: edge (%d,%d) does not conflict at its own strength %g", fam.Name, i, j, q)
				}
				if q > 0 {
					below := math.Float64frombits(math.Float64bits(q) - 1)
					if Conflicting(fam.At(below), links[i], links[j]) {
						t.Fatalf("%s: edge (%d,%d) already conflicts below its strength %g", fam.Name, i, j, q)
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
		}
	})
}

// TestLookaheadSequenceMatchesOracle drives one Lookahead through a seeded
// random sequence of GraphFor calls — three families, link sets of 0, 1 and
// a few hundred links, a content-equal copy of one set, and γ below, at and
// above the ceiling or exactly at some pair's strength (the filter's
// boundary) — and checks every answer against the O(n²) oracle (CSR
// arrays and strengths) and its Reused flag against a model of the cache:
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
			var qs []float64
			for _, q := range buildNaiveLookahead(set.links, fam, ceiling).Strengths {
				if q > 0 {
					qs = append(qs, q)
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
