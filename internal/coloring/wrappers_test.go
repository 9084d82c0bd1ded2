package coloring

import (
	"context"
	"fmt"
	"testing"

	"aggrate/internal/conflict"
	"aggrate/internal/geom"
)

// flavor is one conflict-graph flavor the tests color: fam.At(gamma), named
// by that Func's String.
type flavor struct {
	Name  string
	fam   conflict.Family
	gamma float64
}

// testFlavors returns G_γ, G_obl and G_arb at the parameters the coloring
// tests use.
func testFlavors() []flavor {
	var out []flavor
	for _, fl := range []flavor{
		{fam: conflict.GammaFamily(), gamma: 1},
		{fam: conflict.PowerLawFamily(0.5), gamma: 2},
		{fam: conflict.LogThresholdFamily(3), gamma: 1.5},
	} {
		fl.Name = fl.fam.At(fl.gamma).String()
		out = append(out, fl)
	}
	return out
}

// buildGraph constructs the conflict graph of links under fam.At(gamma).
func buildGraph(t testing.TB, links []geom.Link, fam conflict.Family, gamma float64) *conflict.Graph {
	t.Helper()
	g, err := conflict.BuildLookaheadCtx(context.Background(), links, fam, gamma)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The allocating entry points the tests use: each wraps a Workspace method
// with a fresh Workspace and freshly allocated colors.

// FirstFit is the allocating wrapper over (*Workspace).FirstFit; see there.
// It returns one color per vertex, colors numbered from 0, and the number
// of colors used.
func FirstFit(g *conflict.Graph, order []int) ([]int, int) {
	colors := make([]int, g.N())
	k := NewWorkspace().FirstFit(g, order, colors)
	return colors, k
}

// ByLengthOrder is the allocating wrapper over (*Workspace).LengthOrder.
func ByLengthOrder(g *conflict.Graph) []int {
	return append([]int(nil), NewWorkspace().LengthOrder(g)...)
}

// GreedyByLength colors the conflict graph by first-fit, processing links
// in non-increasing order of length (App. A / Ye–Borodin elimination
// orders). colors must have length g.N(); returns the number of colors.
func (ws *Workspace) GreedyByLength(g *conflict.Graph, colors []int) int {
	return ws.FirstFit(g, ws.LengthOrder(g), colors)
}

// GreedyByLength colors the conflict graph by first-fit, processing links in
// non-increasing order of length (App. A / Ye–Borodin elimination orders):
// each link gets the smallest color not used by an already-colored neighbor.
// It returns one color per vertex, colors numbered from 0, and the number of
// colors used.
func GreedyByLength(g *conflict.Graph) ([]int, int) {
	colors := make([]int, g.N())
	k := NewWorkspace().GreedyByLength(g, colors)
	return colors, k
}

// DSatur is the allocating wrapper over (*Workspace).DSatur. Returns colors
// (0-based, dense) and the count.
func DSatur(g *conflict.Graph) ([]int, int) {
	colors := make([]int, g.N())
	k := NewWorkspace().DSatur(g, colors)
	return colors, k
}

// JP is the allocating wrapper over (*Workspace).JP.
func JP(g *conflict.Graph, seed uint64) ([]int, int) {
	colors := make([]int, g.N())
	k := NewWorkspace().JP(g, seed, colors)
	return colors, k
}

// NumColors returns the number of distinct colors (max+1, assuming colors
// are the dense 0-based palette produced by GreedyByLength).
func NumColors(colors []int) int {
	m := 0
	for _, c := range colors {
		if c+1 > m {
			m = c + 1
		}
	}
	return m
}

// Classes groups vertex indices by color. Class k lists the vertices of
// color k in increasing index order.
func Classes(colors []int) [][]int {
	k := NumColors(colors)
	out := make([][]int, k)
	for v, c := range colors {
		out[c] = append(out[c], v)
	}
	return out
}

// RefinementIndependentInG1 checks the feasibility half of Theorem 2's
// proof: each refinement set must be an independent set of G₁ = G_γ with
// γ = 1.
func RefinementIndependentInG1(links []geom.Link, sets [][]int) error {
	g1 := conflict.GammaFamily().At(1)
	for k, set := range sets {
		for a := 0; a < len(set); a++ {
			for b := a + 1; b < len(set); b++ {
				i, j := set[a], set[b]
				if conflict.Conflicting(g1, links[i], links[j]) {
					return fmt.Errorf("coloring: refinement set %d not independent in G1: links %d,%d conflict", k, i, j)
				}
			}
		}
	}
	return nil
}

// isIndependent reports whether the given vertex subset of g is pairwise
// non-adjacent.
func isIndependent(g *conflict.Graph, set []int) bool {
	mark := make([]bool, g.N())
	for _, v := range set {
		mark[v] = true
	}
	for _, v := range set {
		for _, w := range g.Row(v) {
			if mark[w] {
				return false
			}
		}
	}
	return true
}
