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

// parent returns v's parent, or -1 for the sink.
func (t *Tree) parent(v int) int {
	if v == t.Sink {
		return -1
	}
	if v > t.Sink {
		v--
	}
	return t.Links[v].Receiver
}

// bfs walks the tree down from the sink over the children lists the links
// imply, returning the nodes in visit order and each node's hop distance to
// the sink.
func (t *Tree) bfs() (order, depth []int) {
	n := t.N()
	children := make([][]int, n)
	for _, l := range t.Links {
		children[l.Receiver] = append(children[l.Receiver], l.Sender)
	}
	depth = make([]int, n)
	order = append(make([]int, 0, n), t.Sink)
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, c := range children[v] {
			depth[c] = depth[v] + 1
			order = append(order, c)
		}
	}
	return order, depth
}

// SubtreeSizes returns, for each node, the number of nodes in its subtree
// (including itself). The sink's entry equals n.
func (t *Tree) SubtreeSizes() []int {
	order, _ := t.bfs()
	size := make([]int, t.N())
	// Reverse visit order finishes every child before its parent.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		size[v]++
		if p := t.parent(v); p >= 0 {
			size[p] += size[v]
		}
	}
	return size
}

// PathToSink returns the node sequence from v up to the sink, inclusive.
func (t *Tree) PathToSink(v int) []int {
	path := []int{v}
	for p := t.parent(v); p != -1; p = t.parent(p) {
		path = append(path, p)
	}
	return path
}
