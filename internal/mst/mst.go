// Package mst builds the aggregation tree: the Euclidean minimum spanning
// tree of the input pointset, oriented toward a sink to form a convergecast
// tree.
//
// The paper's protocol (Sec. 3) uses the MST with edges directed arbitrarily;
// for the convergecast semantics of the simulator, edges point from child to
// parent along the unique sink-rooted orientation. Two constructions are
// provided: EMST, a parallel Borůvka over a kd-tree whose work follows the
// local point density, the production path of NewMSTTree; and Prim in O(n²)
// time and O(n) memory, the small-input and zero-extent path and the oracle
// EMST is cross-checked against (the tests add Kruskal over all pairs as an
// independent third). EMST breaks ties by Kruskal's total order, so its edge
// slice is a function of the pointset alone, whatever GOMAXPROCS; on
// pointsets with distinct pairwise distances (all jittered generators) the
// MST is unique and all three constructions agree edge-for-edge. For
// collinear pointsets LineMST exploits the 1-D structure (connect neighbors
// in sorted order).
package mst

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"aggrate/internal/geom"
	"aggrate/internal/par"
	"aggrate/internal/unionfind"
)

// Edge is an undirected tree edge between two point indices.
type Edge struct {
	U, V   int
	Weight float64
}

// ErrNonFinite reports a NaN or ±Inf point coordinate.
var ErrNonFinite = errors.New("mst: non-finite point coordinate")

// Prim computes the Euclidean MST of pts with the O(n²) dense-graph variant
// of Prim's algorithm (the right tool for a complete geometric graph).
// It returns n-1 edges; a nil slice for n < 2. Coordinates must be finite;
// squared distances that overflow to +Inf still connect.
func Prim(pts []geom.Point) []Edge {
	n := len(pts)
	if n < 2 {
		return nil
	}
	const none = -1
	inTree := make([]bool, n)
	bestDist := make([]float64, n) // squared distance to the tree
	bestFrom := make([]int, n)
	for i := range bestDist {
		bestDist[i] = math.Inf(1)
		bestFrom[i] = none
	}
	edges := make([]Edge, 0, n-1)
	cur := 0
	inTree[0] = true
	for len(edges) < n-1 {
		// Relax distances through the vertex added last.
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			if d := pts[cur].Dist2(pts[v]); d < bestDist[v] || bestFrom[v] == none {
				bestDist[v] = d
				bestFrom[v] = cur
			}
		}
		// Pick the closest fringe vertex, the lowest index among equals.
		next := none
		nd := 0.0
		for v := 0; v < n; v++ {
			if !inTree[v] && (next == none || bestDist[v] < nd) {
				nd = bestDist[v]
				next = v
			}
		}
		edges = append(edges, Edge{U: bestFrom[next], V: next, Weight: math.Sqrt(nd)})
		inTree[next] = true
		cur = next
	}
	return edges
}

// emstCutoff is the pointset size below which the dense Prim is faster than
// building the kd-tree. Measured on uniform points (2 vCPU, go1.24, median
// of three, mean of two runs), Prim vs kd-tree Borůvka: 15 vs 45 µs at
// n=64, 62 vs 111 µs at 128, 158 vs 173 µs at 192, 335 vs 323 µs at 256,
// 684 vs 559 µs at 384, 1174 vs 646 µs at 512 — the cutoff sits at the
// crossover, so Prim stays as the size-selected small-input path.
const emstCutoff = 256

// EMST computes the Euclidean MST with Borůvka's algorithm over a kd-tree
// (March, Ram & Gray, KDD 2010). Each round labels every tree node with the
// component all its points belong to, finds each component's minimum
// outgoing edge by a pruned nearest-foreign-neighbor query from its points
// (run in parallel on internal/par), and merges along the selected edges;
// components at least halve per round. Candidates are compared by squared
// distance, then the sorted endpoint pair — Kruskal's order, a total order,
// under which Borůvka is exact even on ties. EMST returns nil for a
// non-finite coordinate (EMSTCtx reports ErrNonFinite); pointsets below
// emstCutoff or of zero extent go to Prim.
func EMST(pts []geom.Point) []Edge {
	edges, _ := EMSTCtx(context.Background(), pts) // Background never cancels
	return edges
}

// emstStats counts the work of one EMSTCtx run for tests and benchmarks.
// The counters other than Rounds move slightly with how blocks fall to
// workers; the edges never do.
type emstStats struct {
	Rounds       int
	NodesVisited int // kd-tree nodes tested by label, box or cell
	PairsTested  int // point pairs whose distance was computed
	SamePruned   int // subtrees skipped as the query's own component
	CachedPoints int // queries replaced by a cached exact pair
}

// EMSTCtx is EMST with cancellation: a round's queries run in blocks of 16
// leaves, and a cancel stops the round within one block per worker. On
// cancellation it returns (nil, ctx.Err()); a partial edge set is never
// returned. A NaN or ±Inf coordinate returns ErrNonFinite.
func EMSTCtx(ctx context.Context, pts []geom.Point) ([]Edge, error) {
	return emstCtx(ctx, pts, nil)
}

func emstCtx(ctx context.Context, pts []geom.Point, st *emstStats) ([]Edge, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(pts)
	lo, hi := geom.BoundingBox(pts) // math.Min/Max carry NaN and ±Inf through
	for _, v := range [...]float64{lo.X, lo.Y, hi.X, hi.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrNonFinite
		}
	}
	if n < emstCutoff || lo == hi {
		return Prim(pts), nil
	}
	b := &boruvka{kdTree: buildKD(pts, lo, hi), rootM: make([]int32, n), candK: make([]int32, n), candD2: make([]float64, n)}
	b.label = make([]int32, len(b.nodes))
	// Components are keyed by the slot of their root point, so the
	// per-component bests of nearby points sit close in memory. Every
	// point starts as its own component.
	slotOf := make([]int32, n)
	roots := make([]int32, n) // component roots, ascending
	for s, i := range b.idx {
		slotOf[i], b.rootM[s], b.candK[s], roots[s] = int32(s), int32(s), -1, int32(s)
	}
	dsu := unionfind.New(n)
	edges := make([]Edge, 0, n-1)
	var (
		remap      []int32 // component key → merged key, from round 2 on
		mu         sync.Mutex
		free, used []*emstWorker
		stats      emstStats
	)
	for len(edges) < n-1 {
		b.labelRound(remap)
		stats.Rounds++
		err := par.ForBlocksCtx(ctx, len(b.nodes)-b.leaf0, 16, func(next func() (int, int, bool)) {
			var w *emstWorker
			for lo, hi, ok := next(); ok; lo, hi, ok = next() {
				if w == nil {
					mu.Lock()
					if len(free) > 0 {
						w, free = free[len(free)-1], free[:len(free)-1]
					} else {
						w = &emstWorker{best: make([]pairBest, n)}
						for k := range w.best {
							w.best[k].v = -1
						}
					}
					mu.Unlock()
				}
				for leaf := b.leaf0 + lo; leaf < b.leaf0+hi; leaf++ {
					b.queryLeaf(w, leaf)
				}
			}
			if w != nil {
				mu.Lock()
				used = append(used, w)
				mu.Unlock()
			}
		})
		if err != nil {
			return nil, err
		}
		// Each worker holds per component the minimum over the points it
		// queried, so the minimum over workers is the component's minimum
		// outgoing pair, however the blocks fell. Fold the workers into
		// the first in slot order, then merge in root order; the reset
		// clears every key the next round can use.
		w0 := used[0]
		if len(used) > 1 {
			par.For(n, func(k int) {
				for _, w := range used[1:] {
					if wp := w.best[k]; wp.v >= 0 {
						if w0.best[k].v < 0 || wp.less(w0.best[k]) {
							w0.best[k] = wp
						}
						w.best[k].v = -1
					}
				}
			})
		}
		for _, r := range roots {
			p := w0.best[slotOf[r]]
			w0.best[slotOf[r]].v = -1
			if p.v >= 0 && dsu.Union(int(p.u), int(p.v)) {
				edges = append(edges, Edge{U: int(p.u), V: int(p.v), Weight: math.Sqrt(p.d2)})
			}
		}
		for _, w := range used {
			stats.NodesVisited += w.st.NodesVisited
			stats.PairsTested += w.st.PairsTested
			stats.SamePruned += w.st.SamePruned
			stats.CachedPoints += w.st.CachedPoints
			w.st = emstStats{}
		}
		free, used = append(free, used...), used[:0]
		// Each component's key becomes its merged root's; the merged roots
		// are a subset of this round's, still ascending.
		if remap == nil {
			remap = make([]int32, n)
		}
		live := roots[:0]
		for _, r := range roots {
			nr := int32(dsu.Find(int(r)))
			remap[slotOf[r]] = slotOf[nr]
			if nr == r {
				live = append(live, r)
			}
		}
		if len(live) == len(roots) {
			// Unreachable: with finite coordinates a query that has no
			// candidate ascends to the root and tests every foreign point.
			return nil, fmt.Errorf("mst: Borůvka round selected no edge")
		}
		roots = live
	}
	if st != nil {
		*st = stats
	}
	return edges, nil
}

// pairBest is a candidate edge: the pair (u, v) of point indices, u in the
// component that found it, at squared distance d2; v = -1 for none.
type pairBest struct {
	d2   float64
	u, v int32
}

// less reports whether p precedes q under Kruskal's order: squared
// distance, then the sorted endpoint pair.
func (p pairBest) less(q pairBest) bool {
	if p.d2 != q.d2 {
		return p.d2 < q.d2
	}
	pu, qu := min(p.u, p.v), min(q.u, q.v)
	return pu < qu || (pu == qu && max(p.u, p.v) < max(q.u, q.v))
}

// kdLeafSize bounds the points per kd-tree leaf.
const kdLeafSize = 16

// kdTree is a complete binary tree in heap layout (node k has children 2k+1
// and 2k+2), every leaf at the same depth with kdLeafSize/2 to kdLeafSize
// points. Points are permuted into leaf order: slot s holds point idx[s]
// at (xs[s], ys[s]).
type kdTree struct {
	nodes  []kdNode
	leaf0  int // heap index of the first leaf
	idx    []int32
	xs, ys []float64
}

type kdNode struct {
	lo, hi int32      // slot range
	box    [4]float64 // tight bounding box of the points: x0, x1, y0, y1
	// cell is the partition cell, bounded by the ancestors' split lines
	// (±Inf at the root): every point outside the subtree lies on or
	// beyond one of its sides.
	cell [4]float64
}

// buildKD builds the kd-tree of pts, whose bounding box is [lo, hi]. Each
// node splits at the median along the longer side of its cell clipped to
// the bounding box: left points have coordinate ≤ the split value, right
// points ≥. The nodes of a level split in parallel.
func buildKD(pts []geom.Point, lo, hi geom.Point) *kdTree {
	n := len(pts)
	depth := 0
	for (n+(1<<depth)-1)>>depth > kdLeafSize { // ceil(n / 2^depth)
		depth++
	}
	t := &kdTree{nodes: make([]kdNode, 1<<(depth+1)-1), leaf0: 1<<depth - 1,
		idx: make([]int32, n), xs: make([]float64, n), ys: make([]float64, n)}
	for i, p := range pts {
		t.idx[i], t.xs[i], t.ys[i] = int32(i), p.X, p.Y
	}
	inf := math.Inf(1)
	t.nodes[0] = kdNode{hi: int32(n), cell: [4]float64{-inf, inf, -inf, inf}}
	for d := 0; d < depth; d++ {
		par.For(1<<d, func(j int) {
			k := 1<<d - 1 + j
			nd := &t.nodes[k]
			c := nd.cell
			axis, coord := 0, t.xs
			if min(c[3], hi.Y)-max(c[2], lo.Y) > min(c[1], hi.X)-max(c[0], lo.X) {
				axis, coord = 2, t.ys
			}
			m := int(nd.lo+nd.hi) / 2
			t.selectNth(coord, int(nd.lo), int(nd.hi)-1, m)
			l, r := &t.nodes[2*k+1], &t.nodes[2*k+2]
			*l, *r = kdNode{lo: nd.lo, hi: int32(m), cell: c}, kdNode{lo: int32(m), hi: nd.hi, cell: c}
			l.cell[axis+1], r.cell[axis] = coord[m], coord[m]
		})
	}
	par.For(len(t.nodes)-t.leaf0, func(j int) {
		nd := &t.nodes[t.leaf0+j]
		nd.box = [4]float64{inf, -inf, inf, -inf}
		for s := nd.lo; s < nd.hi; s++ {
			nd.box = [4]float64{min(nd.box[0], t.xs[s]), max(nd.box[1], t.xs[s]), min(nd.box[2], t.ys[s]), max(nd.box[3], t.ys[s])}
		}
	})
	for k := t.leaf0 - 1; k >= 0; k-- {
		l, r := &t.nodes[2*k+1].box, &t.nodes[2*k+2].box
		t.nodes[k].box = [4]float64{min(l[0], r[0]), max(l[1], r[1]), min(l[2], r[2]), max(l[3], r[3])}
	}
	return t
}

// selectNth permutes slots [lo, hi] so that coord[m] holds the value of
// rank m-lo, with no greater value before it and no smaller one after it
// (Hoare-partition quickselect, median-of-three pivot).
func (t *kdTree) selectNth(coord []float64, lo, hi, m int) {
	for lo < hi {
		a, b, c := coord[lo], coord[lo+(hi-lo)/2], coord[hi]
		pv := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for coord[i] < pv {
				i++
			}
			for coord[j] > pv {
				j--
			}
			if i <= j {
				t.xs[i], t.xs[j] = t.xs[j], t.xs[i]
				t.ys[i], t.ys[j] = t.ys[j], t.ys[i]
				t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
				i, j = i+1, j-1
			}
		}
		// Now [lo, j] ≤ pv, [i, hi] ≥ pv, and slots strictly between hold pv.
		if m <= j {
			hi = j
		} else if m >= i {
			lo = i
		} else {
			return
		}
	}
}

// boruvka is the state of one EMST run shared by its queries.
type boruvka struct {
	*kdTree
	rootM []int32 // component key (its root's slot) of the point in slot s
	label []int32 // component of every point under node k, -1 if mixed
	// Cross-round cache, by slot. Merges only shrink a point's foreign set,
	// so its minimum outgoing distance never falls from round to round:
	// candD2[s] is a lower bound on it, and a point whose bound exceeds its
	// component's best skips its query. candK[s] (-1 for none) is the slot
	// of a point j such that (idx[s], idx[j]) was the point's exact minimum
	// outgoing pair, at squared distance candD2[s]; the pair stays its
	// minimum until j's component merges with its own, and meanwhile the
	// point offers it instead of querying.
	candK  []int32
	candD2 []float64
}

// labelRound maps rootM through remap (unless nil) and labels the nodes.
func (b *boruvka) labelRound(remap []int32) {
	par.For(len(b.nodes)-b.leaf0, func(j int) {
		nd := &b.nodes[b.leaf0+j]
		roots := b.rootM[nd.lo:nd.hi]
		if remap != nil {
			for s, r := range roots {
				roots[s] = remap[r]
			}
		}
		b.label[b.leaf0+j] = roots[0]
		for _, r := range roots[1:] {
			if r != roots[0] {
				b.label[b.leaf0+j] = -1
				break
			}
		}
	})
	for k := b.leaf0 - 1; k >= 0; k-- {
		if b.label[k] = b.label[2*k+1]; b.label[k] != b.label[2*k+2] {
			b.label[k] = -1
		}
	}
}

// emstWorker is one worker's best pair per component key over the points
// it queried this round, and its counters.
type emstWorker struct {
	best []pairBest
	st   emstStats
}

// kdQuery is one point's query: point i of component r at (px, py), and
// its running best, where k is v's slot when the query found the pair
// itself and -1 when it came from the worker's component best.
type kdQuery struct {
	w      *emstWorker
	r, i   int32
	px, py float64
	best   pairBest
	k      int32
}

// The pruning tests compare lower bounds with the running best using the
// same float operations as the pair distance, so they hold exactly in
// float64 without a pad. For q in a box with x-range [x0, x1] and px < x0,
// qx ≥ x0 gives fl(x0 − px) ≤ fl(qx − px) = |fl(px − qx)|, since rounding
// is monotone and fl(−a) = −fl(a); likewise above x1, and the gap is 0
// inside. Squaring non-negatives and adding them are monotone too, so
// boxD2 ≤ the computed d2 of every pair it covers. The same argument holds
// for a cell side between p and every point on or beyond it, with dy² ≥ 0
// added. Both prune only when the bound is strictly greater than the
// running best, so pairs tying with it are still tested.

// boxD2 is the squared distance from (px, py) to box b (0 inside).
func boxD2(px, py float64, b *[4]float64) float64 {
	dx, dy := 0.0, 0.0
	if px < b[0] {
		dx = b[0] - px
	} else if px > b[1] {
		dx = px - b[1]
	}
	if py < b[2] {
		dy = b[2] - py
	} else if py > b[3] {
		dy = py - b[3]
	}
	return dx*dx + dy*dy
}

// queryLeaf offers each point's minimum outgoing pair of the leaf to the
// worker's best of its component: the cached pair while still valid,
// nothing when its lower bound is strictly worse, and otherwise the result
// of a query that starts at the leaf's highest same-component ancestor and
// searches sibling subtrees while ascending.
func (b *boruvka) queryLeaf(w *emstWorker, leaf int) {
	nd := &b.nodes[leaf]
	start := leaf
	for r := b.label[leaf]; r >= 0 && start > 0 && b.label[(start-1)/2] == r; {
		start = (start - 1) / 2
	}
	for s := nd.lo; s < nd.hi; s++ {
		r := b.rootM[s]
		if j := b.candK[s]; j >= 0 && b.rootM[j] != r {
			if p := (pairBest{b.candD2[s], b.idx[s], b.idx[j]}); w.best[r].v < 0 || p.less(w.best[r]) {
				w.best[r] = p
			}
			w.st.CachedPoints++
			continue
		}
		if wb := w.best[r]; wb.v >= 0 && b.candD2[s] > wb.d2 {
			continue
		}
		q := kdQuery{w: w, r: r, i: b.idx[s], px: b.xs[s], py: b.ys[s], best: w.best[r], k: -1}
		if q.best.v < 0 {
			q.best.d2 = math.Inf(1)
		}
		if b.label[leaf] < 0 {
			b.scanLeaf(&q, leaf)
		}
		for k := start; k > 0; k = (k - 1) / 2 {
			c := &b.nodes[k].cell // every point outside subtree k is beyond a side
			g := min(q.px-c[0], c[1]-q.px, q.py-c[2], c[3]-q.py)
			w.st.NodesVisited++
			if g*g > q.best.d2 {
				break
			}
			sib := k - 1 + 2*(k&1)
			b.search(&q, sib, boxD2(q.px, q.py, &b.nodes[sib].box))
		}
		// Every foreign pair of the point was tested, hence is no better
		// than the final best, or pruned as strictly worse than a running
		// best no better than it: the final d2 is a lower bound, and the
		// query's own find is its exact minimum outgoing pair.
		w.best[r] = q.best
		b.candK[s], b.candD2[s] = q.k, q.best.d2
	}
}

// search scans subtree k, whose box is at squared distance d2, for foreign
// points, nearer child first, skipping subtrees of the query's own
// component and boxes strictly farther than the running best.
func (b *boruvka) search(q *kdQuery, k int, d2 float64) {
	q.w.st.NodesVisited++
	if b.label[k] == q.r {
		q.w.st.SamePruned++
		return
	}
	if d2 > q.best.d2 {
		return
	}
	if k >= b.leaf0 {
		b.scanLeaf(q, k)
		return
	}
	l, r := 2*k+1, 2*k+2
	dl, dr := boxD2(q.px, q.py, &b.nodes[l].box), boxD2(q.px, q.py, &b.nodes[r].box)
	if dr < dl {
		l, r, dl, dr = r, l, dr, dl
	}
	b.search(q, l, dl)
	b.search(q, r, dr)
}

// scanLeaf tests the query point against every foreign point of the leaf.
func (b *boruvka) scanLeaf(q *kdQuery, leaf int) {
	nd := &b.nodes[leaf]
	roots := b.rootM[nd.lo:nd.hi] // local reslices: no reloads or bounds checks
	xs, ys := b.xs[nd.lo:nd.hi], b.ys[nd.lo:nd.hi]
	xs, ys = xs[:len(roots)], ys[:len(roots)]
	px, py, r, i := q.px, q.py, q.r, q.i
	best, k := q.best, q.k
	tested := 0
	for j, rj := range roots {
		if rj == r {
			continue
		}
		tested++
		dx := px - xs[j]
		dy := py - ys[j]
		d2 := dx*dx + dy*dy
		if d2 < best.d2 || (d2 == best.d2 && (best.v < 0 || (pairBest{d2, i, b.idx[int(nd.lo)+j]}).less(best))) {
			best, k = pairBest{d2, i, b.idx[int(nd.lo)+j]}, nd.lo+int32(j)
		}
	}
	q.w.st.PairsTested += tested
	q.best, q.k = best, k
}

// Tree is a convergecast tree: an MST rooted at a sink, with every non-sink
// node owning exactly one directed link toward its parent.
type Tree struct {
	// Points is the node set; Sink indexes the root.
	Points []geom.Point
	Sink   int
	// Parent[v] is v's parent, or -1 for the sink.
	Parent []int
	// Children[v] lists v's children.
	Children [][]int
	// Depth[v] is the hop distance from v to the sink (0 at the sink).
	Depth []int
	// Links[k] is the directed link of edge k, from child to parent. There
	// is exactly one link per non-sink node; LinkOf maps nodes to links.
	Links []geom.Link
	// LinkOf[v] is the index into Links of node v's uplink, -1 for the sink.
	LinkOf []int
}

// Build orients the given spanning edges toward the sink and assembles the
// convergecast structure. It returns an error if the edges do not form a
// spanning tree of the pointset or sink is out of range.
func Build(pts []geom.Point, edges []Edge, sink int) (*Tree, error) {
	n := len(pts)
	if sink < 0 || sink >= n {
		return nil, fmt.Errorf("mst: sink %d out of range [0,%d)", sink, n)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("mst: %d edges cannot span %d points", len(edges), n)
	}
	// CSR adjacency: two counted passes instead of 2(n-1) per-node appends,
	// and the BFS streams each node's neighbors from one contiguous block.
	rowPtr := make([]int32, n+1)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("mst: edge (%d,%d) out of range", e.U, e.V)
		}
		rowPtr[e.U+1]++
		rowPtr[e.V+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	adjFlat := make([]int32, 2*(n-1))
	fill := append([]int32(nil), rowPtr[:n]...)
	for _, e := range edges {
		adjFlat[fill[e.U]] = int32(e.V)
		fill[e.U]++
		adjFlat[fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	t := &Tree{
		Points:   pts,
		Sink:     sink,
		Parent:   make([]int, n),
		Children: make([][]int, n),
		Depth:    make([]int, n),
		LinkOf:   make([]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.LinkOf[i] = -1
	}
	// BFS from the sink to orient edges. Connectivity doubles as the
	// spanning-tree check: n-1 edges that reach every node cannot contain a
	// cycle, so no separate union-find pass is needed.
	queue := make([]int32, 1, n)
	queue[0] = int32(sink)
	visited := make([]bool, n)
	visited[sink] = true
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, w := range adjFlat[rowPtr[v]:rowPtr[v+1]] {
			if visited[w] {
				continue
			}
			visited[w] = true
			t.Parent[w] = int(v)
			t.Depth[w] = t.Depth[v] + 1
			queue = append(queue, w)
		}
	}
	for v, ok := range visited {
		if !ok {
			return nil, fmt.Errorf("mst: node %d not reachable from sink (edges do not form a spanning tree)", v)
		}
	}
	// Children, carved from one flat backing array in BFS discovery order —
	// per parent that is its adjacency order, as the row-by-row BFS visits.
	childPtr := make([]int32, n+1)
	for _, w := range queue[1:] {
		childPtr[t.Parent[w]+1]++
	}
	for i := 0; i < n; i++ {
		childPtr[i+1] += childPtr[i]
	}
	childFlat := make([]int, n-1)
	cfill := append([]int32(nil), childPtr[:n]...)
	for _, w := range queue[1:] {
		p := t.Parent[w]
		childFlat[cfill[p]] = int(w)
		cfill[p]++
	}
	for v := 0; v < n; v++ {
		s, e := childPtr[v], childPtr[v+1]
		if s < e {
			t.Children[v] = childFlat[s:e:e]
		}
	}
	// One uplink per non-sink node, ordered by node index for determinism.
	t.Links = make([]geom.Link, 0, n-1)
	for v := 0; v < n; v++ {
		if v == sink {
			continue
		}
		p := t.Parent[v]
		t.LinkOf[v] = len(t.Links)
		t.Links = append(t.Links, geom.NewLink(v, p, pts[v], pts[p]))
	}
	return t, nil
}

// NewMSTTree is the one-call constructor used by the public planner: it
// computes the Euclidean MST of pts (kd-tree Borůvka, with the dense Prim as
// small-input and zero-extent path) and orients it toward sink. A NaN or
// ±Inf coordinate returns ErrNonFinite.
func NewMSTTree(pts []geom.Point, sink int) (*Tree, error) {
	return NewMSTTreeCtx(context.Background(), pts, sink)
}

// NewMSTTreeCtx is NewMSTTree with cancellation of the Borůvka rounds; see
// EMSTCtx.
func NewMSTTreeCtx(ctx context.Context, pts []geom.Point, sink int) (*Tree, error) {
	edges, err := EMSTCtx(ctx, pts)
	if err != nil {
		return nil, err
	}
	return Build(pts, edges, sink)
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.Points) }

// Validate re-checks the structural invariants (acyclic, spanning, depths
// consistent, one uplink per non-sink node). It is cheap and called by the
// end-to-end plan verifier.
func (t *Tree) Validate() error {
	n := t.N()
	if t.Sink < 0 || t.Sink >= n {
		return fmt.Errorf("mst: invalid sink %d", t.Sink)
	}
	if t.Parent[t.Sink] != -1 {
		return fmt.Errorf("mst: sink has parent %d", t.Parent[t.Sink])
	}
	if len(t.Links) != n-1 {
		return fmt.Errorf("mst: %d links for %d nodes", len(t.Links), n)
	}
	for v := 0; v < n; v++ {
		if v == t.Sink {
			continue
		}
		p := t.Parent[v]
		if p < 0 || p >= n {
			return fmt.Errorf("mst: node %d has invalid parent %d", v, p)
		}
		if t.Depth[v] != t.Depth[p]+1 {
			return fmt.Errorf("mst: depth invariant broken at node %d", v)
		}
		k := t.LinkOf[v]
		if k < 0 || k >= len(t.Links) {
			return fmt.Errorf("mst: node %d has invalid uplink index %d", v, k)
		}
		if l := t.Links[k]; l.Sender != v || l.Receiver != p {
			return fmt.Errorf("mst: uplink of node %d is %v", v, l)
		}
	}
	return nil
}
