// Package mst builds the aggregation tree: the Euclidean minimum spanning
// tree of the input pointset, oriented toward a sink to form a convergecast
// tree.
//
// The paper's protocol (Sec. 3) uses the MST with edges directed arbitrarily;
// for the convergecast semantics of the simulator, edges point from child to
// parent along the unique sink-rooted orientation. Two constructions are
// provided: EMST, a grid-accelerated Borůvka that is near-linear on the
// experiment scenarios and the production path of NewMSTTree; and Prim in
// O(n²) time and O(n) memory, the oracle EMST is cross-checked against (the
// tests add Kruskal over all pairs as an independent third). EMST
// resolves equal-weight candidates with Kruskal's edge order (weight, then
// the sorted endpoint pair), which makes it exact even on tie-heavy inputs;
// on pointsets with distinct pairwise distances (all jittered generators)
// the MST is unique and all three constructions agree edge-for-edge. For
// collinear pointsets LineMST exploits the 1-D structure (connect neighbors
// in sorted order).
package mst

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"aggrate/internal/geom"
	"aggrate/internal/unionfind"
)

// Edge is an undirected tree edge between two point indices.
type Edge struct {
	U, V   int
	Weight float64
}

// Prim computes the Euclidean MST of pts with the O(n²) dense-graph variant
// of Prim's algorithm (the right tool for a complete geometric graph).
// It returns n-1 edges; a nil slice for n < 2.
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
			if d := pts[cur].Dist2(pts[v]); d < bestDist[v] {
				bestDist[v] = d
				bestFrom[v] = cur
			}
		}
		// Pick the closest fringe vertex.
		next := none
		nd := math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && bestDist[v] < nd {
				nd = bestDist[v]
				next = v
			}
		}
		if next == none {
			// Unreachable for finite coordinates, but fail loudly rather
			// than loop forever if a NaN coordinate sneaks in.
			panic("mst: disconnected geometric graph (NaN coordinates?)")
		}
		edges = append(edges, Edge{U: bestFrom[next], V: next, Weight: math.Sqrt(nd)})
		inTree[next] = true
		cur = next
	}
	return edges
}

// emstCutoff is the pointset size below which the dense Prim is faster than
// building the grid. Measured on uniform points (2 vCPU, go1.24, median of
// three), Prim vs grid Borůvka: 7.5 vs 18 µs at n=64, 32 vs 76 µs at 128,
// 218 vs 198 µs at 256, 767 vs 506 µs at 512 — the cutoff sits at the
// crossover, so Prim stays as the size-selected small-input path.
const emstCutoff = 256

// EMST computes the Euclidean MST with Borůvka's algorithm over a uniform
// hash grid: each round finds, for every component, its minimum outgoing
// edge by ring-searching the grid outward from each point until the ring's
// lower distance bound exceeds the component's best candidate so far, then
// merges components along the selected edges. Components halve per round,
// so there are O(log n) rounds, and the shared per-component bound prunes
// almost every interior point's search after the first boundary point has
// found a close foreign neighbor — near-linear work on the experiment
// scenarios.
//
// Exactness: Borůvka is exact whenever each component selects a true
// minimum outgoing edge under a total order on edges; candidates are
// compared by (squared distance, sorted endpoint pair), Kruskal's order, so
// ties cannot produce a non-minimum tree. Degenerate inputs (zero extent,
// non-finite coordinates) fall back to Prim.
func EMST(pts []geom.Point) []Edge {
	edges, _ := EMSTCtx(context.Background(), pts) // Background never cancels
	return edges
}

// emstStats counts the work-skipping behavior of one EMSTCtx run, for
// benchmarks and regression visibility (BenchmarkEMSTLarge reports them as
// custom metrics).
type emstStats struct {
	// Rounds is the number of Borůvka rounds.
	Rounds int
	// Supercells counts coarse cells certified single-component-with-
	// single-component-neighborhood, summed over rounds.
	Supercells int
	// SkippedPoints counts points whose entire ring search was skipped by
	// the supercell test, summed over rounds.
	SkippedPoints int
	// CachedPoints counts points whose ring search was replaced by a cached
	// best-edge candidate from an earlier round, summed over rounds.
	CachedPoints int
}

// EMSTCtx is EMST with cancellation, checked once per Borůvka round
// (components halve per round, so the first round — the bulk of the work —
// is the longest uncancellable window). On cancellation it returns
// (nil, ctx.Err()); a partial edge set is never returned.
func EMSTCtx(ctx context.Context, pts []geom.Point) ([]Edge, error) {
	return emstCtx(ctx, pts, nil)
}

func emstCtx(ctx context.Context, pts []geom.Point, st *emstStats) ([]Edge, error) {
	n := len(pts)
	if n < emstCutoff {
		return Prim(pts), nil
	}
	lo, hi := geom.BoundingBox(pts)
	ext := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	if !(ext > 0) || math.IsInf(ext, 1) {
		return Prim(pts), nil
	}
	// Base grid at ~1 point per cell.
	d0 := 1
	for d0*d0 < n && d0 < 4096 {
		d0 <<= 1
	}
	cs := ext / float64(d0)
	cellIdx := func(p geom.Point) (int, int) {
		cx := int((p.X - lo.X) / cs)
		cy := int((p.Y - lo.Y) / cs)
		if cx < 0 {
			cx = 0
		} else if cx >= d0 {
			cx = d0 - 1
		}
		if cy < 0 {
			cy = 0
		} else if cy >= d0 {
			cy = d0 - 1
		}
		return cx, cy
	}
	// CSR layout: points grouped by cell.
	starts := make([]int32, d0*d0+1)
	cellOf := make([]int32, n)
	for i, p := range pts {
		cx, cy := cellIdx(p)
		cellOf[i] = int32(cy*d0 + cx)
		starts[cellOf[i]+1]++
	}
	for c := 0; c < d0*d0; c++ {
		starts[c+1] += starts[c]
	}
	fill := append([]int32(nil), starts[:d0*d0]...)
	members := make([]int32, n)
	for i := 0; i < n; i++ {
		members[fill[cellOf[i]]] = int32(i)
		fill[cellOf[i]]++
	}
	// Cell-grouped copies of the coordinates and (per round) the component
	// roots, indexed by CSR slot rather than point index. The ring search
	// streams members[s:e] ranges, and reading through these keeps its
	// hottest loads sequential instead of gather-loads through members.
	xsM := make([]float64, n)
	ysM := make([]float64, n)
	for k, j := range members {
		xsM[k] = pts[j].X
		ysM[k] = pts[j].Y
	}
	rootM := make([]int32, n)

	// Cross-round champion cache, indexed by CSR slot so the per-point scan
	// loop streams it sequentially. candJ[k]/candD2[k] hold a pair (i, j) —
	// i the point in slot k — that was the component's best candidate at the
	// moment i's ring scan ended: such a pair precedes every pair i scanned
	// (the shared best is a running minimum over them) and every pair i
	// pruned (the ring bound discards only pairs strictly worse than the
	// bound, which at that moment was this pair's own weight) — so it is i's
	// exact Kruskal-order minimum outgoing pair. Merges only shrink the
	// foreign set, so the pair stays i's minimum in every later round until
	// j's component merges with i's; while it does, i offers the cached pair
	// and skips its ring scan outright.
	candJ := make([]int32, n)
	candD2 := make([]float64, n)
	for k := range candJ {
		candJ[k] = -1
	}

	dsu := unionfind.New(n)
	edges := make([]Edge, 0, n-1)
	bestD2 := make([]float64, n) // indexed by component root
	bestU := make([]int32, n)
	bestV := make([]int32, n)
	roots := make([]int32, 0, n)
	// rootOf memoizes dsu.Find for the duration of one round (roots only
	// change at the merge step), turning the O(candidates) Find calls of the
	// ring search into array loads.
	rootOf := make([]int32, n)
	// cellRoot[c] is the common component root of every point in cell c, or
	// -1 if the cell is empty or spans components. In later rounds most cells
	// interior to a component are uniform, and the ring search skips them
	// without touching their members — the bulk of the late-round work.
	cellRoot := make([]int32, d0*d0)
	// Supercell skipping, one pyramid level up from the cell tags: coarse
	// cells of side S = 2·cs (d0 is a power of two ≥ 16, so dc = d0/2 tiles
	// the grid exactly). coarseRoot[cc] is the common root of the coarse
	// cell's points (-2 empty, -1 mixed); blockRoot[cc] is that root when
	// additionally every in-grid coarse neighbor is empty or has the same
	// root — then every foreign point is outside the 3×3 coarse block, hence
	// at distance ≥ S from any point of cc, and a point whose component
	// already holds a candidate strictly below (S·(1-1e-9))² can skip its
	// entire ring scan. The 1e-9 pad absorbs the ulp by which cellIdx's
	// clamped division can misplace a point relative to its cell rectangle;
	// the strict inequality keeps equal-weight ties inside the scan, the
	// same device as the ring lower bound.
	dc := d0 / 2
	coarseRoot := make([]int32, dc*dc)
	blockRoot := make([]int32, dc*dc)
	skipCut := 2 * cs * (1 - 1e-9)
	skipCut *= skipCut
	var stats emstStats
	// better reports whether candidate (d2, u, v) precedes the root's
	// current best under Kruskal's order (weight, sorted endpoint pair).
	better := func(r int, d2 float64, u, v int32) bool {
		if d2 != bestD2[r] {
			return d2 < bestD2[r]
		}
		au, av := minmax32(u, v)
		bu, bv := minmax32(bestU[r], bestV[r])
		if au != bu {
			return au < bu
		}
		return av < bv
	}
	for len(edges) < n-1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		roots = roots[:0]
		for i := 0; i < n; i++ {
			r := dsu.Find(i)
			rootOf[i] = int32(r)
			if r == i {
				bestD2[i] = math.Inf(1)
				bestU[i], bestV[i] = -1, -1
				roots = append(roots, int32(i))
			}
		}
		for k, j := range members {
			rootM[k] = rootOf[j]
		}
		for c := 0; c < d0*d0; c++ {
			s, e := starts[c], starts[c+1]
			if s == e {
				cellRoot[c] = -1
				continue
			}
			cr := rootM[s]
			for _, rj := range rootM[s+1 : e] {
				if rj != cr {
					cr = -1
					break
				}
			}
			cellRoot[c] = cr
		}
		stats.Rounds++
		// Coarse roots: fold each 2×2 block of fine cells (empty fine cells
		// are wildcards; a mixed fine cell poisons the block).
		for ccy := 0; ccy < dc; ccy++ {
			for ccx := 0; ccx < dc; ccx++ {
				cr := int32(-2)
				for fy := 2 * ccy; fy < 2*ccy+2 && cr != -1; fy++ {
					for fx := 2 * ccx; fx < 2*ccx+2; fx++ {
						c := fy*d0 + fx
						if starts[c] == starts[c+1] {
							continue
						}
						fr := cellRoot[c]
						if fr < 0 || (cr != -2 && fr != cr) {
							cr = -1
							break
						}
						cr = fr
					}
				}
				coarseRoot[ccy*dc+ccx] = cr
			}
		}
		// Block roots: a coarse cell keeps its root only if all ≤8 in-grid
		// coarse neighbors are empty or same-component (out-of-grid space
		// holds no points and is vacuously fine).
		for ccy := 0; ccy < dc; ccy++ {
			for ccx := 0; ccx < dc; ccx++ {
				cc := ccy*dc + ccx
				cr := coarseRoot[cc]
				if cr >= 0 {
					for ny := ccy - 1; ny <= ccy+1 && cr >= 0; ny++ {
						if ny < 0 || ny >= dc {
							continue
						}
						for nx := ccx - 1; nx <= ccx+1; nx++ {
							if nx < 0 || nx >= dc {
								continue
							}
							if nr := coarseRoot[ny*dc+nx]; nr != -2 && nr != cr {
								cr = -1
								break
							}
						}
					}
				}
				if cr >= 0 {
					stats.Supercells++
				}
				blockRoot[cc] = cr
			}
		}
		// Minimum outgoing edge per component, via bounded ring search. The
		// scan walks cells (not points in index order) so the per-point
		// loads stream through the slot-indexed rootM/xsM/ysM and adjacent
		// scans share their ring rows of cellRoot/starts — but grid rows are
		// visited in bit-reversed order, not top-to-bottom. The shared
		// per-component bound is what makes interior points cheap, and it
		// only collapses once some near-boundary point of the component has
		// scanned; a plain row-major sweep can keep a component's bound
		// enormous until the sweep finally reaches its boundary (every point
		// above it then pays a huge ring search), while bit-reversed rows
		// reach within d0/2^k of every row after 2^k rows, so bounds decay
		// geometrically as in the old random-index order.
		//
		// Scan order cannot change the selected edges — every pruning rule
		// (ring lower bound, supercell skip) discards only pairs strictly
		// worse than the component's best at skip time, which bestD2's
		// monotone decrease makes strictly worse than the final best, so
		// each root still ends at the total-order minimum of its outgoing
		// pairs. Only the stats counters are order-sensitive.
		lg := bits.TrailingZeros32(uint32(d0)) // d0 is a power of two
		for ry := 0; ry < d0; ry++ {
			cy := int(bits.Reverse32(uint32(ry)) >> (32 - lg))
			for cx := 0; cx < d0; cx++ {
				home := cy*d0 + cx
				ms, me := starts[home], starts[home+1]
				if ms == me {
					continue
				}
				br := blockRoot[(cy>>1)*dc+(cx>>1)]
				for k := ms; k < me; k++ {
					r := int(rootM[k])
					// Supercell skip: every foreign point is ≥ S away, and
					// the component already holds a strictly better candidate
					// (bestD2 only decreases within a round, so the test
					// stays valid). The first point of a fresh component sees
					// bestD2 = +Inf and always scans, so every component
					// still finds its outgoing edge.
					if br == int32(r) && bestD2[r] < skipCut {
						stats.SkippedPoints++
						continue
					}
					i := members[k]
					// Cached champion pair: while candJ[k] is still foreign
					// it remains i's exact minimum outgoing pair — offer it
					// and skip the ring scan. The cache is left in place; it
					// stays valid until candJ[k]'s component merges in.
					if j := candJ[k]; j >= 0 && rootOf[j] != int32(r) {
						if d2 := candD2[k]; d2 < bestD2[r] || (d2 == bestD2[r] && better(r, d2, i, j)) {
							bestD2[r] = d2
							bestU[r], bestV[r] = i, j
						}
						stats.CachedPoints++
						continue
					}
					px, py := xsM[k], ysM[k]
					// The scan is sequential, so only i itself can move the
					// component's best while i scans: hold it in locals (bd,
					// bu, bv) for the duration — the stores into the float64
					// arrays below would otherwise force the compiler to
					// reload bestD2[r] from memory on every candidate.
					bd, bu, bv := bestD2[r], bestU[r], bestV[r]
					for ring := 0; ; ring++ {
						// Ring lower bound: any point in a cell at Chebyshev
						// ring distance q from p's cell is at least (q-1)·cs
						// away from p, so once that exceeds the component's
						// best candidate the remaining rings cannot contain
						// the minimum (nor an equal-weight tie, which the
						// strict inequality excludes).
						if ring >= 2 {
							lb := float64(ring-1) * cs
							if lb*lb > bd {
								break
							}
						}
						x0, x1 := cx-ring, cx+ring
						y0, y1 := cy-ring, cy+ring
						if x0 < 0 && x1 >= d0 && y0 < 0 && y1 >= d0 {
							break // the shell lies entirely outside the grid
						}
						lx := x0
						if lx < 0 {
							lx = 0
						}
						hx := x1
						if hx >= d0 {
							hx = d0 - 1
						}
						// The shell's top and bottom rows are contiguous cell
						// spans, so their members occupy one contiguous slot
						// range each: scan it directly (the per-point rootM
						// test subsumes the per-cell cellRoot skip).
						// y0 ≤ cy < d0 and y1 ≥ cy ≥ 0 always hold.
						for pass := 0; pass < 2; pass++ {
							y := y0
							if pass == 1 {
								y = y1
								if y1 == y0 {
									break
								}
							} else if y < 0 {
								continue
							}
							if y >= d0 {
								continue
							}
							row := y * d0
							for k2 := starts[row+lx]; k2 < starts[row+hx+1]; k2++ {
								if int(rootM[k2]) == r {
									continue
								}
								dx := px - xsM[k2]
								dy := py - ysM[k2]
								d2 := dx*dx + dy*dy
								if d2 < bd {
									bd = d2
									bu, bv = i, members[k2]
								} else if d2 == bd {
									au, av := minmax32(i, members[k2])
									cu, cv := minmax32(bu, bv)
									if au < cu || (au == cu && av < cv) {
										bu, bv = i, members[k2]
									}
								}
							}
						}
						// Left and right shell columns, interior y only (the
						// corner cells belong to the rows above).
						ly := y0 + 1
						if ly < 0 {
							ly = 0
						}
						hy := y1 - 1
						if hy >= d0 {
							hy = d0 - 1
						}
						for pass := 0; pass < 2; pass++ {
							x := x0
							if pass == 1 {
								x = x1
								if x1 == x0 {
									break
								}
								if x >= d0 {
									continue
								}
							} else if x < 0 {
								continue
							}
							for y := ly; y <= hy; y++ {
								c := y*d0 + x
								if int(cellRoot[c]) == r {
									continue // every member is same-component
								}
								for k2 := starts[c]; k2 < starts[c+1]; k2++ {
									if int(rootM[k2]) == r {
										continue
									}
									dx := px - xsM[k2]
									dy := py - ysM[k2]
									d2 := dx*dx + dy*dy
									if d2 < bd {
										bd = d2
										bu, bv = i, members[k2]
									} else if d2 == bd {
										au, av := minmax32(i, members[k2])
										cu, cv := minmax32(bu, bv)
										if au < cu || (au == cu && av < cv) {
											bu, bv = i, members[k2]
										}
									}
								}
							}
						}
					}
					bestD2[r], bestU[r], bestV[r] = bd, bu, bv
					// Champion cache write: if i still supplies the shared
					// best as its scan ends, that pair is i's exact minimum
					// outgoing pair (see candJ above). Otherwise any previous
					// cache entry has already failed its validity check, so
					// clear it.
					if bu == i {
						candJ[k], candD2[k] = bv, bd
					} else if candJ[k] >= 0 {
						candJ[k] = -1
					}
				}
			}
		}
		// Merge along the selected edges.
		progressed := false
		for _, r := range roots {
			if bestV[r] < 0 {
				continue
			}
			if dsu.Union(int(bestU[r]), int(bestV[r])) {
				edges = append(edges, Edge{
					U: int(bestU[r]), V: int(bestV[r]),
					Weight: math.Sqrt(bestD2[r]),
				})
				progressed = true
			}
		}
		if !progressed {
			// No component found an outgoing edge (NaN coordinates or a
			// bound inversion): the dense oracle handles what the grid
			// cannot.
			return Prim(pts), nil
		}
	}
	if st != nil {
		*st = stats
	}
	return edges, nil
}

func minmax32(a, b int32) (int32, int32) {
	if a < b {
		return a, b
	}
	return b, a
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
// computes the Euclidean MST of pts (grid-accelerated Borůvka, with the
// dense Prim as small-input and degenerate-input fallback) and orients it
// toward sink.
func NewMSTTree(pts []geom.Point, sink int) (*Tree, error) {
	return Build(pts, EMST(pts), sink)
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
