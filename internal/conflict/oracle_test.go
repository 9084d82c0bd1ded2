package conflict

import (
	"math"
	"testing"

	"aggrate/internal/geom"
)

// BuildNaive constructs G_f(links) by exact pairwise testing (O(n²)) with
// the pair predicate Conflicting. It is the test oracle for the
// bucketed build. The double loop discovers edges in lexicographic (i, j)
// order, so the serial CSR scatter (oracleCSR) emits both directions of
// every row already ascending with no sorting pass.
func BuildNaive(links []geom.Link, f Func) *Graph {
	n := len(links)
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Conflicting(f, links[i], links[j]) {
				edges = append(edges, edge{int32(i), int32(j)})
			}
		}
	}
	return oracleCSR(links, edges, nil)
}

// oracleCSR is the oracles' CSR assembly, kept apart from the production
// assembler it checks: one serial counting pass over the edge list, then a
// scatter of each edge in both directions in list order, so a
// lexicographically ordered list yields ascending rows. qs, when non-nil,
// parallels edges with per-edge exact strengths, stored rounded up to
// float32 as Graph.Strengths specifies.
func oracleCSR(links []geom.Link, edges []edge, qs []float64) *Graph {
	n := len(links)
	g := &Graph{
		Links:     append([]geom.Link(nil), links...),
		RowPtr:    make([]int32, n+1),
		Neighbors: make([]int32, 2*len(edges)),
	}
	if qs != nil {
		g.Strengths = make([]float32, 2*len(edges))
	}
	for _, e := range edges {
		g.RowPtr[e.i+1]++
		g.RowPtr[e.j+1]++
	}
	for i := 0; i < n; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	fill := append([]int32(nil), g.RowPtr[:n]...)
	for k, e := range edges {
		g.Neighbors[fill[e.i]], g.Neighbors[fill[e.j]] = e.j, e.i
		if qs != nil {
			q := roundUp32(qs[k])
			g.Strengths[fill[e.i]], g.Strengths[fill[e.j]] = q, q
		}
		fill[e.i]++
		fill[e.j]++
	}
	return g
}

// buildNaiveLookahead is the strength-annotated analogue of BuildNaive: the
// exact O(n²) pairwise scan, with the pair test phrased through the family
// factor (bit-identical to Conflicting at fam.At(gamma), whose Eval is the
// same product γ·h) and a strength per accepted edge. Degenerate pairs with
// l_min ≤ 0 conflict at every γ and get strength 0.
func buildNaiveLookahead(links []geom.Link, fam Family, gamma float64) *Graph {
	n := len(links)
	// Each link's length once, instead of twice per pair: the same float64
	// values geom.MinMaxLen would compute, ordered the same way.
	lens := geom.Lengths(links)
	var edges []edge
	qs := []float64{} // non-nil even when edgeless: marks the graph filterable
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lmin, lmax := lens[j], lens[i]
			if lens[i] < lens[j] {
				lmin, lmax = lens[i], lens[j]
			}
			if lmin <= 0 {
				edges = append(edges, edge{int32(i), int32(j)})
				qs = append(qs, 0)
				continue
			}
			hx := fam.H(lmax / lmin)
			thr := lmin * (gamma * hx)
			d2 := geom.LinkDist2(links[i], links[j])
			if d2 <= thr*thr {
				edges = append(edges, edge{int32(i), int32(j)})
				qs = append(qs, strengthOf(d2, lmin, hx, gamma))
			}
		}
	}
	return oracleCSR(links, edges, qs)
}

// pairStrength returns the exact float64 conflict strength of links a and
// b under fam, as buildNaiveLookahead computes it: the pair must conflict
// at buildGamma.
func pairStrength(fam Family, a, b geom.Link, buildGamma float64) float64 {
	lmin, lmax := geom.MinMaxLen(a, b)
	if lmin <= 0 {
		return 0
	}
	return strengthOf(geom.LinkDist2(a, b), lmin, fam.H(lmax/lmin), buildGamma)
}

// degenerate reports whether the bucketed build must refuse links under f,
// restating each ErrDegenerate condition from its definition: a link length
// that is non-positive or non-finite, f(2) not finite and positive, a cell
// side l·f(2) that leaves float64's positive finite range, or a coordinate
// 2⁶² or more cell sides of its dyadic length class from the origin.
func degenerate(links []geom.Link, f Func) bool {
	lmin, lmax := math.Inf(1), 0.0
	for _, l := range links {
		le := l.Length()
		if !(le > 0) || math.IsInf(le, 1) {
			return true
		}
		lmin, lmax = math.Min(lmin, le), math.Max(lmax, le)
	}
	f2 := f.Eval(2)
	if !(f2 > 0) || math.IsInf(f2, 1) {
		return true
	}
	if len(links) == 0 {
		return false
	}
	if !(lmin*f2 > 0) || math.IsInf(lmax*f2, 1) {
		return true
	}
	// Class c holds the lengths in [lmin·2^c, lmin·2^(c+1)); its cell side
	// is its longest length times f(2).
	classOf := func(le float64) int {
		c := 0
		for b := lmin * 2; b <= le; b *= 2 {
			c++
		}
		return c
	}
	classMax := map[int]float64{}
	classFar := map[int]float64{}
	for _, l := range links {
		c := classOf(l.Length())
		classMax[c] = math.Max(classMax[c], l.Length())
		for _, v := range []float64{l.S.X, l.S.Y, l.R.X, l.R.Y} {
			classFar[c] = math.Max(classFar[c], math.Abs(v))
		}
	}
	for c, m := range classMax {
		if !(classFar[c]/(m*f2) < 1<<62) {
			return true
		}
	}
	return false
}

// TestNaiveAdjacencyAscending pins the invariant that lets BuildNaive skip
// a sort pass: the i<j double loop emits both adjacency directions in
// ascending order already.
func TestNaiveAdjacencyAscending(t *testing.T) {
	g := BuildNaive(mstLinks(t, 400, 7, 500), GammaFamily().At(2))
	for i := 0; i < g.N(); i++ {
		adj := g.Row(i)
		for k := 1; k < len(adj); k++ {
			if adj[k-1] >= adj[k] {
				t.Fatalf("Row(%d) not strictly ascending at pos %d: %d >= %d", i, k, adj[k-1], adj[k])
			}
		}
	}
}
