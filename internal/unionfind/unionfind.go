// Package unionfind implements a disjoint-set-union structure with path
// compression and union by rank. It backs Kruskal's MST algorithm in
// internal/mst.
package unionfind

// DSU is a disjoint-set-union over the integers [0, n). Construct with New.
type DSU struct {
	parent []int
	rank   []byte
}

// New returns a DSU with n singleton sets {0}, {1}, …, {n-1}.
func New(n int) *DSU {
	d := &DSU{
		parent: make([]int, n),
		rank:   make([]byte, n),
	}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

// Find returns the canonical representative of x's set.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of x and y and reports whether a merge happened
// (false when they were already in the same set).
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.rank[rx] < d.rank[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = rx
	if d.rank[rx] == d.rank[ry] {
		d.rank[rx]++
	}
	return true
}
