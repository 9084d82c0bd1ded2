package mst

import (
	"fmt"
	"sort"

	"aggrate/internal/geom"
)

// LineMST computes the MST of a collinear pointset (sorted-neighbor chain).
// The points need not be pre-sorted. It returns an error if the points are
// not all on the x-axis.
func LineMST(pts []geom.Point) ([]Edge, error) {
	if !geom.OnLine(pts) {
		return nil, fmt.Errorf("mst: LineMST requires points on the x-axis")
	}
	n := len(pts)
	if n < 2 {
		return nil, nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pts[order[a]].X < pts[order[b]].X })
	edges := make([]Edge, 0, n-1)
	for k := 0; k+1 < n; k++ {
		u, v := order[k], order[k+1]
		edges = append(edges, Edge{U: u, V: v, Weight: pts[u].Dist(pts[v])})
	}
	return edges, nil
}

// TotalWeight sums the edge weights.
func TotalWeight(edges []Edge) float64 {
	s := 0.0
	for _, e := range edges {
		s += e.Weight
	}
	return s
}

// SubtreeSizes returns, for each node, the number of nodes in its subtree
// (including itself). The sink's entry equals n.
func (t *Tree) SubtreeSizes() []int {
	n := t.N()
	size := make([]int, n)
	// Process nodes in decreasing depth so children are done before parents.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.Depth[order[a]] > t.Depth[order[b]] })
	for _, v := range order {
		size[v] = 1
		for _, c := range t.Children[v] {
			size[v] += size[c]
		}
	}
	return size
}

// PathToSink returns the node sequence from v up to the sink, inclusive.
func (t *Tree) PathToSink(v int) []int {
	path := []int{v}
	for t.Parent[v] != -1 {
		v = t.Parent[v]
		path = append(path, v)
	}
	return path
}
