package coloring

import (
	"testing"

	"aggrate/internal/conflict"
	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/rng"
	"aggrate/internal/sinr"
)

func testLinks(t testing.TB, n int, seed uint64) []geom.Link {
	t.Helper()
	r := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
	}
	tree, err := mst.NewMSTTree(pts, 0)
	if err != nil {
		t.Fatalf("NewMSTTree: %v", err)
	}
	return tree.Links
}

// TestGreedyProper: first-fit by length must yield a proper coloring of
// every conflict-graph flavor, with a dense 0-based palette.
func TestGreedyProper(t *testing.T) {
	links := testLinks(t, 400, 1)
	funcs := testFlavors()
	for _, f := range funcs {
		g := buildGraph(t, links, f.fam, f.gamma)
		colors, k := GreedyByLength(g)
		if err := Verify(g, colors); err != nil {
			t.Fatalf("%s: Verify: %v", f.Name, err)
		}
		if k != NumColors(colors) {
			t.Fatalf("%s: reported %d colors, palette says %d", f.Name, k, NumColors(colors))
		}
		classes := Classes(colors)
		if len(classes) != k {
			t.Fatalf("%s: %d classes for %d colors", f.Name, len(classes), k)
		}
		total := 0
		for c, class := range classes {
			if len(class) == 0 {
				t.Fatalf("%s: color %d unused (palette not dense)", f.Name, c)
			}
			if !isIndependent(g, class) {
				t.Fatalf("%s: color class %d not independent", f.Name, c)
			}
			total += len(class)
		}
		if total != g.N() {
			t.Fatalf("%s: classes cover %d of %d vertices", f.Name, total, g.N())
		}
	}
}

// TestVerifyCatchesBadColoring ensures the checker actually rejects.
func TestVerifyCatchesBadColoring(t *testing.T) {
	links := testLinks(t, 100, 2)
	g := buildGraph(t, links, conflict.GammaFamily(), 1)
	colors, _ := GreedyByLength(g)
	// Find an edge and make it monochromatic.
	for v := range colors {
		if row := g.Row(v); len(row) > 0 {
			colors[v] = colors[row[0]]
			break
		}
	}
	if err := Verify(g, colors); err == nil {
		t.Fatal("Verify accepted a monochromatic edge")
	}
	if err := Verify(g, colors[:10]); err == nil {
		t.Fatal("Verify accepted a short color slice")
	}
}

// TestRefineTheorem2 checks the refinement against both halves of the
// Theorem-2 proof obligation: the I(i, S⁺ᵢ) < 1 invariant and
// G₁-independence of every set — plus the constant-size claim, loosely.
func TestRefineTheorem2(t *testing.T) {
	p := sinr.DefaultParams()
	for seed := uint64(1); seed <= 3; seed++ {
		links := testLinks(t, 300, seed)
		sets := Refine(links, p)
		if err := VerifyRefinement(links, sets, p); err != nil {
			t.Fatalf("seed %d: VerifyRefinement: %v", seed, err)
		}
		if err := RefinementIndependentInG1(links, sets); err != nil {
			t.Fatalf("seed %d: RefinementIndependentInG1: %v", seed, err)
		}
		// Lemma 1 bounds the number of sets by a constant for MST links;
		// the empirical constant on uniform instances is single-digit.
		// 32 is a loose regression tripwire, not the theorem's bound.
		if len(sets) > 32 {
			t.Fatalf("seed %d: refinement used %d sets, far above the expected constant", seed, len(sets))
		}
	}
}

// TestVerifyRefinementCatchesViolations ensures the refinement checker
// rejects duplicated and missing links.
func TestVerifyRefinementCatchesViolations(t *testing.T) {
	p := sinr.DefaultParams()
	links := testLinks(t, 50, 4)
	sets := Refine(links, p)
	dup := append([][]int{{sets[0][0]}}, sets...)
	if err := VerifyRefinement(links, dup, p); err == nil {
		t.Fatal("VerifyRefinement accepted a duplicated link")
	}
	if err := VerifyRefinement(links, sets[1:], p); err == nil && len(sets) > 1 {
		t.Fatal("VerifyRefinement accepted a missing set")
	}
}

// TestDSaturProper: DSATUR must yield a proper, dense coloring of every
// conflict-graph flavor and never use more than MaxDegree+1 colors.
func TestDSaturProper(t *testing.T) {
	links := testLinks(t, 400, 2)
	funcs := testFlavors()
	for _, f := range funcs {
		g := buildGraph(t, links, f.fam, f.gamma)
		colors, k := DSatur(g)
		if err := Verify(g, colors); err != nil {
			t.Fatalf("%s: Verify: %v", f.Name, err)
		}
		if k != NumColors(colors) {
			t.Fatalf("%s: reported %d colors, palette says %d", f.Name, k, NumColors(colors))
		}
		if k > g.MaxDegree()+1 {
			t.Fatalf("%s: DSATUR used %d colors, exceeds MaxDegree+1 = %d",
				f.Name, k, g.MaxDegree()+1)
		}
		for c, class := range Classes(colors) {
			if len(class) == 0 {
				t.Fatalf("%s: color %d unused (palette not dense)", f.Name, c)
			}
		}
	}
}

// TestDSaturKnownGraphs pins DSATUR on hand-built graphs: it colors odd
// cycles with 3 colors and bipartite even cycles with 2, where index-order
// first-fit on the same even cycle can need 3.
func TestDSaturKnownGraphs(t *testing.T) {
	cycle := func(n int) *conflict.Graph {
		// Unit-length links around a circle, conflicting iff adjacent on the
		// cycle: build the graph directly via the naive constructor on a
		// synthetic threshold is awkward, so assemble adjacency by hand.
		adj := make([][]int32, n)
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			adj[i] = append(adj[i], int32(j))
			adj[j] = append(adj[j], int32(i))
		}
		return conflict.FromAdj(make([]geom.Link, n), adj)
	}
	if _, k := DSatur(cycle(5)); k != 3 {
		t.Fatalf("DSATUR on C5 used %d colors, want 3", k)
	}
	if _, k := DSatur(cycle(6)); k != 2 {
		t.Fatalf("DSATUR on C6 used %d colors, want 2", k)
	}
	colors, k := DSatur(cycle(7))
	if k != 3 {
		t.Fatalf("DSATUR on C7 used %d colors, want 3", k)
	}
	if len(colors) != 7 {
		t.Fatalf("DSATUR on C7 colored %d vertices", len(colors))
	}
}

// TestFirstFitOrders: FirstFit along the length order reproduces
// GreedyByLength exactly; index order is a valid (if weaker) coloring.
func TestFirstFitOrders(t *testing.T) {
	links := testLinks(t, 300, 3)
	g := buildGraph(t, links, conflict.PowerLawFamily(0.5), 2)
	byLen, kLen := GreedyByLength(g)
	ffLen, kFF := FirstFit(g, ByLengthOrder(g))
	if kLen != kFF {
		t.Fatalf("FirstFit(ByLengthOrder) used %d colors, GreedyByLength %d", kFF, kLen)
	}
	for v := range byLen {
		if byLen[v] != ffLen[v] {
			t.Fatalf("vertex %d: FirstFit(ByLengthOrder)=%d, GreedyByLength=%d", v, ffLen[v], byLen[v])
		}
	}
	idx := make([]int, g.N())
	NewWorkspace().FirstFitAnyOrder(g, IndexOrder(g.N()), idx)
	if err := Verify(g, idx); err != nil {
		t.Fatalf("index-order first-fit improper: %v", err)
	}
}
