package mst

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/rng"
	"aggrate/internal/unionfind"
)

func randomPoints(n int, seed uint64, side float64) []geom.Point {
	r := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	return pts
}

// TestPrimKruskalAgree cross-checks the two MST constructions by total
// weight on random pointsets: distinct algorithms, identical optimum.
func TestPrimKruskalAgree(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, n := range []int{2, 3, 10, 60, 200} {
			pts := randomPoints(n, seed*100+uint64(n), 1000)
			wp := TotalWeight(Prim(pts))
			wk := TotalWeight(kruskalTotalOrder(pts, math.Inf(1)))
			if math.Abs(wp-wk) > 1e-9*math.Max(1, wp) {
				t.Fatalf("n=%d seed=%d: Prim weight %.12g != Kruskal weight %.12g", n, seed, wp, wk)
			}
		}
	}
}

// TestLineMSTMatchesPrim checks the 1-D specialization against the general
// algorithm on collinear instances.
func TestLineMSTMatchesPrim(t *testing.T) {
	r := rng.New(42)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 500, Y: 0}
	}
	le, err := LineMST(pts)
	if err != nil {
		t.Fatalf("LineMST: %v", err)
	}
	if got, want := TotalWeight(le), TotalWeight(Prim(pts)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("LineMST weight %.12g != Prim weight %.12g", got, want)
	}
	if _, err := LineMST([]geom.Point{{X: 0, Y: 1}}); err == nil {
		t.Fatal("LineMST accepted an off-axis point")
	}
}

// TestTreeStructure builds the convergecast tree and checks its invariants
// plus the per-node uplink bookkeeping.
func TestTreeStructure(t *testing.T) {
	pts := randomPoints(150, 7, 1000)
	tree, err := NewMSTTree(pts, 3)
	if err != nil {
		t.Fatalf("NewMSTTree: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.Sink != 3 || tree.N() != 150 || len(tree.Links) != 149 {
		t.Fatalf("tree shape wrong: sink=%d n=%d links=%d", tree.Sink, tree.N(), len(tree.Links))
	}
	sizes := tree.SubtreeSizes()
	if sizes[tree.Sink] != tree.N() {
		t.Fatalf("sink subtree size %d != n %d", sizes[tree.Sink], tree.N())
	}
	for v := 0; v < tree.N(); v++ {
		path := tree.PathToSink(v)
		if path[len(path)-1] != tree.Sink {
			t.Fatalf("PathToSink(%d) does not end at sink", v)
		}
		if len(path)-1 != tree.Depth[v] {
			t.Fatalf("PathToSink(%d) length %d inconsistent with depth %d", v, len(path)-1, tree.Depth[v])
		}
	}
}

// TestBuildRejectsBadEdges exercises the error paths of Build.
func TestBuildRejectsBadEdges(t *testing.T) {
	pts := randomPoints(4, 1, 10)
	if _, err := Build(pts, []Edge{{U: 0, V: 1}}, 0); err == nil {
		t.Fatal("Build accepted too few edges")
	}
	cyc := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}
	if _, err := Build(pts, cyc, 0); err == nil {
		t.Fatal("Build accepted a cycle")
	}
	if _, err := Build(pts, Prim(pts), 99); err == nil {
		t.Fatal("Build accepted an out-of-range sink")
	}
}

// edgeKey normalizes an edge to its sorted endpoint pair.
func edgeKey(e Edge) [2]int {
	if e.U > e.V {
		return [2]int{e.V, e.U}
	}
	return [2]int{e.U, e.V}
}

// sameEdges reports whether two edge lists describe the same undirected
// edge set.
func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[[2]int]bool, len(a))
	for _, e := range a {
		set[edgeKey(e)] = true
	}
	for _, e := range b {
		if !set[edgeKey(e)] {
			return false
		}
	}
	return true
}

// clusteredPoints bunches points into tight far-apart clusters: late
// Borůvka rounds must reach across wide empty space.
func clusteredPoints(n int, seed uint64) []geom.Point {
	r := rng.New(seed)
	centers := []geom.Point{{X: 0, Y: 0}, {X: 5000, Y: 100}, {X: 2000, Y: 4000}, {X: 4800, Y: 4900}}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[int(r.Uint64()%uint64(len(centers)))]
		pts[i] = c.Add(geom.Point{X: r.NormFloat64() * 8, Y: r.NormFloat64() * 8})
	}
	return pts
}

// TestEMSTMatchesPrim: the kd-tree Borůvka must reproduce the dense
// oracle's edge set exactly on jittered pointsets (where the MST is unique),
// uniform and clustered, above and below the Prim cutoff.
func TestEMSTMatchesPrim(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, n := range []int{2, 50, 300, 1500} {
			pts := randomPoints(n, seed*31+uint64(n), 1000)
			if !sameEdges(EMST(pts), Prim(pts)) {
				t.Fatalf("uniform n=%d seed=%d: EMST edge set differs from Prim", n, seed)
			}
			cl := clusteredPoints(n, seed*37+uint64(n))
			if !sameEdges(EMST(cl), Prim(cl)) {
				t.Fatalf("clustered n=%d seed=%d: EMST edge set differs from Prim", n, seed)
			}
		}
	}
}

// annulusPoints spreads radii over four decades (the annulus scenario
// shape: strongly non-uniform density).
func annulusPoints(n int, seed uint64) []geom.Point {
	r := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		rad := math.Pow(10, r.Float64()*4) // 1..1e4
		th := r.Float64() * 2 * math.Pi
		pts[i] = geom.Point{X: rad * math.Cos(th), Y: rad * math.Sin(th)}
	}
	return pts
}

// TestEMSTAnnulus exercises strongly non-uniform density.
func TestEMSTAnnulus(t *testing.T) {
	pts := annulusPoints(800, 9)
	if !sameEdges(EMST(pts), Prim(pts)) {
		t.Fatal("annulus: EMST edge set differs from Prim")
	}
}

// latticePoints is the w×h integer lattice, where every nearest-neighbor
// distance ties.
func latticePoints(w, h int) []geom.Point {
	var pts []geom.Point
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

// TestEMSTTieHeavy: on an exact integer grid every nearest-neighbor
// distance ties, so this pins the Kruskal-order tie-breaking — the result
// must be exactly the total-order Kruskal tree.
func TestEMSTTieHeavy(t *testing.T) {
	pts := latticePoints(30, 30)
	got := EMST(pts)
	if !sameEdges(got, kruskalTotalOrder(pts, math.Inf(1))) {
		t.Fatal("tie-heavy: EMST edge set differs from the total-order Kruskal tree")
	}
	if _, err := Build(pts, got, 0); err != nil {
		t.Fatalf("EMST edges do not form a spanning tree: %v", err)
	}
}

// TestEMSTSubtreePruning pins the kd-tree round structure at sizes where
// whole subtrees merge early: the edge set must stay identical to the dense
// Prim oracle on uniform, clustered, and annulus geometry, and on the
// uniform instance — where most subtrees turn single-component after the
// first rounds — same-component subtree pruning must actually engage, so
// the optimization cannot silently regress into dead code.
func TestEMSTSubtreePruning(t *testing.T) {
	cases := []struct {
		name       string
		pts        []geom.Point
		wantPruned bool
	}{
		{"uniform-4000", randomPoints(4000, 51, 1000), true},
		{"cluster-4000", clusteredPoints(4000, 52), false},
		{"annulus-3000", annulusPoints(3000, 53), false},
	}
	for _, tc := range cases {
		var st emstStats
		edges, err := emstCtx(context.Background(), tc.pts, &st)
		if err != nil {
			t.Fatalf("%s: emstCtx: %v", tc.name, err)
		}
		if !sameEdges(edges, Prim(tc.pts)) {
			t.Fatalf("%s: kd-tree EMST edge set differs from Prim", tc.name)
		}
		if st.Rounds == 0 {
			t.Fatalf("%s: stats not collected", tc.name)
		}
		if tc.wantPruned && st.SamePruned == 0 {
			t.Fatalf("%s: same-component subtree pruning never engaged", tc.name)
		}
		t.Logf("%s: rounds=%d same_pruned=%d nodes=%d pairs=%d cached=%d",
			tc.name, st.Rounds, st.SamePruned, st.NodesVisited, st.PairsTested, st.CachedPoints)
	}
}

// TestEMSTPruningTieHeavy re-pins the tie-breaking guarantee on the exact
// integer grid at a size where whole subtrees turn single-component:
// equal-weight candidates must not be pruned into a different choice, so
// the edge set must equal the total-order Kruskal tree exactly.
func TestEMSTPruningTieHeavy(t *testing.T) {
	pts := latticePoints(64, 64)
	var st emstStats
	got, err := emstCtx(context.Background(), pts, &st)
	if err != nil {
		t.Fatalf("emstCtx: %v", err)
	}
	if !sameEdges(got, kruskalTotalOrder(pts, 1)) {
		t.Fatal("tie-heavy 64x64: EMST edge set differs from the total-order Kruskal tree")
	}
	if _, err := Build(pts, got, 0); err != nil {
		t.Fatalf("EMST edges do not form a spanning tree: %v", err)
	}
	t.Logf("tie-heavy 64x64: rounds=%d same_pruned=%d nodes=%d pairs=%d",
		st.Rounds, st.SamePruned, st.NodesVisited, st.PairsTested)
}

// TestEMSTDegenerate: coincident points (zero extent) must fall back to the
// dense path and still span.
func TestEMSTDegenerate(t *testing.T) {
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{X: 1, Y: 2}
	}
	edges := EMST(pts)
	if len(edges) != len(pts)-1 {
		t.Fatalf("degenerate: %d edges for %d points", len(edges), len(pts))
	}
	if _, err := Build(pts, edges, 0); err != nil {
		t.Fatalf("degenerate edges do not span: %v", err)
	}
}

// BenchmarkMST compares the dense Prim with the kd-tree Borůvka at a
// pipeline-realistic size.
func BenchmarkMST(b *testing.B) {
	pts := randomPoints(10000, 42, 1000)
	b.Run("prim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Prim(pts)
		}
	})
	b.Run("emst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EMST(pts)
		}
	})
}

// kruskalTotalOrder is Kruskal over the pairs with squared distance at most
// maxD2, in EMST's documented total order: Dist2, then the sorted endpoint
// pair. Any maxD2 no smaller than the MST's largest squared edge gives the
// exact tree (Kruskal never reaches a heavier pair); a smaller one leaves
// the result short of n-1 edges. Edges are reported as (lower, higher).
func kruskalTotalOrder(pts []geom.Point, maxD2 float64) []Edge {
	type pair struct {
		d2   float64
		u, v int32
	}
	n := len(pts)
	var all []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d2 := pts[i].Dist2(pts[j]); d2 <= maxD2 {
				all = append(all, pair{d2, int32(i), int32(j)})
			}
		}
	}
	slices.SortFunc(all, func(a, b pair) int {
		if c := cmp.Compare(a.d2, b.d2); c != 0 {
			return c
		}
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	dsu := unionfind.New(n)
	var edges []Edge
	for _, p := range all {
		if dsu.Union(int(p.u), int(p.v)) {
			edges = append(edges, Edge{U: int(p.u), V: int(p.v), Weight: math.Sqrt(p.d2)})
			if len(edges) == n-1 {
				break
			}
		}
	}
	return edges
}
