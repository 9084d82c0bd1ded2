package conflict

import (
	"math"
	"testing"

	"aggrate/internal/geom"
)

// BuildNaive constructs G_f(links) by exact pairwise testing (O(n²)) with
// the unfactored predicate Conflicting. It is the test oracle for the
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
	return oracleCSR(links, f, edges, nil)
}

// oracleCSR is the oracles' CSR assembly, kept apart from the production
// assembler it checks: one serial counting pass over the edge list, then a
// scatter of each edge in both directions in list order, so a
// lexicographically ordered list yields ascending rows. qs, when non-nil,
// parallels edges with per-edge strengths.
func oracleCSR(links []geom.Link, f Func, edges []edge, qs []float64) *Graph {
	n := len(links)
	g := &Graph{
		Links:     append([]geom.Link(nil), links...),
		F:         f,
		RowPtr:    make([]int32, n+1),
		Neighbors: make([]int32, 2*len(edges)),
	}
	if qs != nil {
		g.Strengths = make([]float64, 2*len(edges))
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
			g.Strengths[fill[e.i]], g.Strengths[fill[e.j]] = qs[k], qs[k]
		}
		fill[e.i]++
		fill[e.j]++
	}
	return g
}

// buildNaiveLookahead is the strength-annotated analogue of BuildNaive: the
// exact O(n²) pairwise scan, with the pair test phrased through the family
// factor (bit-identical to Conflicting at fam.At(gamma) by Family.At's
// contract) and a strength per accepted edge. Degenerate pairs with
// l_min ≤ 0 conflict at every γ and get strength 0.
func buildNaiveLookahead(links []geom.Link, fam Family, gamma float64) *Graph {
	n := len(links)
	f := fam.At(gamma)
	var edges []edge
	qs := []float64{} // non-nil even when edgeless: marks the graph filterable
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lmin, lmax := geom.MinMaxLen(links[i], links[j])
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
	return oracleCSR(links, f, edges, qs)
}

// degenerate reports whether the bucketed build must refuse links under f,
// restating each ErrDegenerate condition from its definition: a link length
// that is non-positive or non-finite, f(2) not finite and positive, or a
// cell side l·f(2) that leaves float64's positive finite range.
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
	return len(links) > 0 && (!(lmin*f2 > 0) || math.IsInf(lmax*f2, 1))
}

// TestNaiveAdjacencyAscending pins the invariant that lets BuildNaive skip
// a sort pass: the i<j double loop emits both adjacency directions in
// ascending order already.
func TestNaiveAdjacencyAscending(t *testing.T) {
	g := BuildNaive(mstLinks(t, 400, 7, 500), Gamma(2))
	for i := 0; i < g.N(); i++ {
		adj := g.Row(i)
		for k := 1; k < len(adj); k++ {
			if adj[k-1] >= adj[k] {
				t.Fatalf("Row(%d) not strictly ascending at pos %d: %d >= %d", i, k, adj[k-1], adj[k])
			}
		}
	}
}
