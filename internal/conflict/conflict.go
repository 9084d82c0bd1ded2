// Package conflict implements the conflict-graph framework of Appendix A
// (originating in Halldórsson & Tonoyan, STOC 2015).
//
// For a positive non-decreasing sub-linear function f: [1,∞) → R⁺, two links
// i, j are f-independent when
//
//	d(i,j)/l_min > f(l_max/l_min),
//
// where l_min = min(l_i, l_j), l_max = max(l_i, l_j), and d(i,j) is the
// minimum endpoint distance; otherwise they are f-conflicting. The conflict
// graph G_f(L) has the links as vertices and f-conflicting pairs as edges.
//
// Three instantiations carry the paper's results:
//
//   - G_γ     (f ≡ γ):            χ(G_γ(MST)) = O(1)   — Theorem 2;
//   - G_{γlog} (f = γ·max{1, log^{2/(α-2)} x}): independent sets are
//     feasible under global power control, χ = O(log*Δ)·χ(G_γ) — "G_arb";
//   - G^δ_γ   (f = γ·x^δ, δ∈(0,1)): independent sets are feasible under an
//     oblivious scheme P_τ, χ = O(log log Δ)·χ(G_γ) — "G_obl".
//
// The adjacency is stored in CSR (compressed sparse row) form — one flat
// RowPtr offset array plus one flat Neighbors array — so the coloring hot
// loops walk contiguous memory and the build allocates O(1) slices instead
// of one per vertex. Graphs are one-sided: each edge is stored once, in the
// row of its endpoint that comes later in first-fit order (length
// non-increasing, index ascending; see Graph). That is all first-fit in
// that order reads, and it is the back-neighbourhood the inductive
// independence of Appendix A is defined on.
//
// BuildLookaheadCtx is the one constructor: it buckets links into dyadic
// length classes, indexes endpoints in one uniform hash grid per class,
// detects edges with a goroutine pool, annotates every edge with its
// conflict strength, and scatters the workers' edge buffers straight into
// the CSR arrays, so 10⁵-link instances build in seconds and one build
// serves a whole γ-escalation ladder (see Lookahead). Inputs the grid cannot
// index are refused with ErrDegenerate, and graphs past the edge cap with
// ErrTooManyEdges. The exact O(n²) pairwise scan lives in the package tests
// as the oracle.
//
// Strengths are stored as float32: each is the smallest float32 at or
// above the exact float64 strength (roundUp32). The annotation costs 4
// bytes per edge, and no output bit depends on the rounding:
// FilterCtx decides every γ that is a float32 (every rung of the escalation
// ladder) by the float32 compare alone, and re-decides the rare entry whose
// rounded strength brackets any other γ with the build's own pair
// predicate, Conflicting (see FilterCtx). A graph and its filtered or
// scheduled descendants share one link slice, which no one writes after
// the build.
package conflict

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"aggrate/internal/geom"
	"aggrate/internal/par"
)

// Func is a conflict-threshold function f together with a display name.
// Eval must be positive and non-decreasing on [1, ∞): the bucketed build
// relies on monotonicity to bound candidate-search radii, and a decreasing
// Eval silently breaks its exactness guarantee. Sub-linearity is the
// paper's additional requirement for constant inductive independence
// (Appendix A) — it bounds coloring quality, not build correctness, so
// super-linear thresholds (e.g. the protocol-model f(x) = k·x of the naive
// scheduling strategy) still build exactly.
type Func struct {
	Name string
	Eval func(x float64) float64
	// Const, when positive, asserts that Eval is the constant function
	// x ↦ Const. The bucketed build's innermost pair test then computes the
	// threshold directly instead of calling a closure (Eval, or the family
	// factor) per pair — the dominant per-candidate cost for G_γ builds. Constructors that set it
	// (Gamma) guarantee agreement with Eval; leave it zero otherwise.
	Const float64
}

// Gamma returns the constant function f ≡ γ defining G_γ. The paper's G₁ is
// Gamma(1).
func Gamma(gamma float64) Func {
	return Func{
		Name:  fmt.Sprintf("G_gamma(%g)", gamma),
		Eval:  func(x float64) float64 { return gamma },
		Const: gamma,
	}
}

// PowerLaw returns f(x) = γ·x^δ defining G^δ_γ, the conflict graph whose
// independent sets are feasible under an oblivious power scheme.
func PowerLaw(gamma, delta float64) Func {
	pw := powFunc(delta)
	return Func{
		Name: fmt.Sprintf("G_obl(%g,%g)", gamma, delta),
		Eval: func(x float64) float64 { return gamma * pw(x) },
	}
}

// powFunc returns x ↦ x^δ, routed through math.Sqrt for δ = ½ — the default
// oblivious-power exponent, evaluated once per candidate pair in the build's
// innermost loop. math.Pow special-cases y == 0.5 to Sqrt(x), so the direct
// call is bit-for-bit identical and only skips Pow's dispatch overhead.
func powFunc(delta float64) func(float64) float64 {
	if delta == 0.5 {
		return math.Sqrt
	}
	return func(x float64) float64 { return math.Pow(x, delta) }
}

// LogThreshold returns f(x) = γ·max{1, log₂^{2/(α-2)} x} defining G_{γlog},
// the conflict graph whose independent sets are feasible under global power
// control. The exponent 2/(α-2) comes from [12, Cor. 1].
func LogThreshold(gamma, alpha float64) Func {
	exp := 2 / (alpha - 2)
	return Func{
		Name: fmt.Sprintf("G_arb(%g,alpha=%g)", gamma, alpha),
		Eval: func(x float64) float64 {
			if x <= 2 {
				return gamma
			}
			return gamma * math.Max(1, math.Pow(math.Log2(x), exp))
		},
	}
}

// Conflicting reports whether links i and j are f-conflicting.
func Conflicting(f Func, i, j geom.Link) bool {
	lmin, lmax := geom.MinMaxLen(i, j)
	if lmin <= 0 {
		return true
	}
	thr := lmin * f.Eval(lmax/lmin)
	return geom.LinkDist2(i, j) <= thr*thr
}

// Graph is a concrete conflict graph over an indexed link set, with the
// adjacency in one-sided CSR form. Link j comes before link i in first-fit
// order when l_j > l_i, or l_j == l_i and j < i, with the lengths those of
// Link.Length() — the order coloring's LengthOrder produces. Row i,
// Neighbors[RowPtr[i]:RowPtr[i+1]], lists the neighbors of i that come
// before it, sorted ascending by index; Row(i) returns that slice. Every
// edge is stored exactly once, in the row of its later endpoint, so
// first-fit along the length order reads each row only after every entry
// in it is colored, and the longest row is the largest back-degree
// (MaxBackDegree). Edges, MaxDegree and AverageDegree still describe the
// undirected graph. The layout is two flat allocations regardless of the
// vertex count, and a row walk is one contiguous scan.
type Graph struct {
	// Links is the caller's link slice, stored without a copy and shared by
	// every graph filtered from this one. It is immutable: neither the
	// package nor its callers write to it once the graph exists.
	Links []geom.Link
	F     Func
	// RowPtr has length N()+1; RowPtr[0] == 0.
	RowPtr []int32
	// Neighbors holds all adjacency rows back to back (Edges entries).
	Neighbors []int32
	// Strengths, when non-nil, parallels Neighbors: Strengths[k] is the
	// conflict strength of the edge (i, Neighbors[k]) of row i — the
	// smallest float64 γ at which the two links f_γ-conflict under the
	// threshold family the graph was built for (see Family and strengthOf)
	// — rounded up to the next float32 (roundUp32). Rounding up keeps
	// "Strengths[k] ≤ γ" exact for every float32 γ; FilterCtx rechecks the
	// pairs the rounding leaves undecided at any other γ. Every built or filtered graph carries it;
	// only FromAdj leaves it nil.
	Strengths []float32
	// Stats counts the candidate-pruning work of the bucketed build that
	// produced the graph; zero for test-constructed graphs.
	// FilterCtx propagates it, so filtered lookahead graphs report the
	// annotated build's counters.
	Stats BuildStats
}

// BuildStats counts the bucketed candidate search's pruning effectiveness.
// The counters are deterministic in the input (scan order does not change
// which cells are pruned or which candidates are tested), so they double as
// a hardware-independent regression signal: CandScanned/CandAccepted is the
// distance-tested candidates the build paid per accepted edge.
type BuildStats struct {
	// CellsScanned counts candidate cells whose member lists were streamed.
	CellsScanned int64
	// CellsPruned counts candidate cells rejected whole by the per-cell
	// endpoint-bbox rect-distance prune before any member was loaded.
	CellsPruned int64
	// CandScanned counts member candidates distance-tested across all
	// scanned cells (duplicates via a second cell included, as tested).
	CandScanned int64
	// CandAccepted counts accepted undirected edges (== Edges()).
	CandAccepted int64
}

// Add accumulates another build's counters into s — strategies that build
// several graphs (per-class builds, escalation attempts) aggregate with it.
func (s *BuildStats) Add(o BuildStats) {
	s.CellsScanned += o.CellsScanned
	s.CellsPruned += o.CellsPruned
	s.CandScanned += o.CandScanned
	s.CandAccepted += o.CandAccepted
}

// edge is one undirected edge in the orientation the graph stores it: j
// comes before i in first-fit order, so the edge lives in row i.
type edge struct{ i, j int32 }

// oriented returns the edge between links a and b, of lengths la and lb, as
// the graph stores it: in the row of whichever comes later in first-fit
// order (length non-increasing, index ascending).
func oriented(a, b int32, la, lb float64) edge {
	if la > lb || (la == lb && a < b) {
		return edge{b, a}
	}
	return edge{a, b}
}

// roundUp32 returns the smallest float32 at or above q ≥ 0 (+Inf past
// math.MaxFloat32): the stored form of a conflict strength. For
// non-negative floats the next value up is the next bit pattern.
func roundUp32(q float64) float32 {
	r := float32(q)
	if float64(r) < q {
		r = math.Float32frombits(math.Float32bits(r) + 1)
	}
	return r
}

// ErrTooManyEdges reports a conflict graph past the size cap of MaxInt32/2
// edges (8 GiB of CSR and strengths, or 12 GiB of edge buffers during the
// build). The edge count is driven by the input: a large enough γ makes G_γ
// complete, so a few tens of thousands of links can reach it. Builders wrap
// it with the count; test with errors.Is.
var ErrTooManyEdges = errors.New("conflict: edge count exceeds the graph size cap")

// checkEdgeCount refuses an edge total past the size cap. The cap keeps the
// value it had when every edge took two CSR entries, so no input is
// admitted that was refused before; it also keeps every int32 index well
// in range.
func checkEdgeCount(edges int) error {
	if edges > math.MaxInt32/2 {
		return fmt.Errorf("%w: %d edges", ErrTooManyEdges, edges)
	}
	return nil
}

// scatterGroups returns how many groups the assembler splits nbufs edge
// buffers into. Every group past the first scatters through its own cursor
// array of 4·n bytes; the count is capped so that those arrays never take
// more memory than a merged copy of the total edges (entryBytes per edge)
// would, whatever the number of buffers (one per worker, so per
// GOMAXPROCS).
func scatterGroups(nbufs, n, total, entryBytes int) int {
	k := nbufs
	if n > 0 {
		k = min(k, 1+entryBytes*total/(4*n))
	}
	return max(k, 1)
}

// assemble builds the one-sided CSR adjacency straight from edge buffers,
// with no merged copy: bufs[b] holds oriented edges, each scattered into row
// e.i only, and qs[b], when qs is non-nil, their conflict strengths entry
// for entry, which land in Graph.Strengths alongside the neighbor entries.
// The buffers are dealt round-robin into scatterGroups groups that run in
// parallel, each owning one segment of every row, so no two groups write
// the same slot and no atomics are needed. Each group counts its entries per row and then fills its
// segments downward from their ends; group 0 counts and moves through
// RowPtr itself, which therefore ends at the row starts, and every other
// group through its own cursor array. Rows are then sorted
// (sortRows), so the result does not depend on how edges are spread over
// buffers or on their order. An edge total past the size cap is refused
// with a wrapped ErrTooManyEdges before anything is allocated.
func assemble(links []geom.Link, f Func, bufs [][]edge, qs [][]float32) (*Graph, error) {
	n := len(links)
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if err := checkEdgeCount(total); err != nil {
		return nil, err
	}
	g := &Graph{
		Links:     links,
		F:         f,
		RowPtr:    make([]int32, n+1),
		Neighbors: make([]int32, total),
	}
	entryBytes := 8
	if qs != nil {
		g.Strengths = make([]float32, total)
		entryBytes += 4
	}
	k := scatterGroups(len(bufs), n, total, entryBytes)
	cur := make([][]int32, k)
	for c := 1; c < k; c++ {
		cur[c] = make([]int32, n)
	}
	cur[0] = g.RowPtr[1:]
	par.For(k, func(c int) {
		cnt := cur[c]
		for b := c; b < len(bufs); b += k {
			for _, e := range bufs[b] {
				cnt[e.i]++
			}
		}
	})
	// Lay out each row as group 0's segment followed by groups 1…k-1 and
	// point every cursor at the end of its segment; the scatter fills
	// segments downward. Step v reads group 0's count from RowPtr[v+1] and
	// overwrites RowPtr[v], whose count step v-1 has already consumed.
	off := int32(0)
	for v := 0; v < n; v++ {
		off += g.RowPtr[v+1]
		g.RowPtr[v] = off
		for c := 1; c < k; c++ {
			off += cur[c][v]
			cur[c][v] = off
		}
	}
	g.RowPtr[n] = off
	cur[0] = g.RowPtr[:n]
	par.For(k, func(c int) {
		at := cur[c]
		for b := c; b < len(bufs); b += k {
			for t, e := range bufs[b] {
				p := at[e.i] - 1
				at[e.i] = p
				g.Neighbors[p] = e.j
				if qs != nil {
					g.Strengths[p] = qs[b][t]
				}
			}
		}
	})
	sortRows(g)
	return g, nil
}

// longRow is the row length from which sortRows leaves the insertion sort
// for an O(d log d) sort. Most rows are short (mean degree ≈ 2f(1)² in the
// paper's regimes), where the in-place insertion sort wins on constant
// factors, but γ escalation under uniform and linear power makes rows of
// hundreds of entries, where its quadratic cost dominates the build.
const longRow = 32

// sortRows sorts every adjacency row ascending, permuting the parallel
// Strengths entries, when present, in lockstep. A long row packs each
// (neighbor, slot) pair into one uint64 key — neighbors are distinct and
// non-negative, so key order is neighbor order — sorts the keys and gathers
// the strengths back through the slots from a per-worker copy.
func sortRows(g *Graph) {
	par.ForBlocks(g.N(), 256, func(next func() (int, int, bool)) {
		var keys []uint64
		var qtmp []float32
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				row := g.Row(i)
				if len(row) < 2 {
					continue
				}
				if g.Strengths == nil {
					slices.Sort(row)
					continue
				}
				qrow := g.Strengths[g.RowPtr[i]:g.RowPtr[i+1]]
				if len(row) >= longRow {
					keys = keys[:0]
					for k, j := range row {
						keys = append(keys, uint64(j)<<32|uint64(k))
					}
					slices.Sort(keys)
					qtmp = append(qtmp[:0], qrow...)
					for t, key := range keys {
						row[t] = int32(key >> 32)
						qrow[t] = qtmp[uint32(key)]
					}
					continue
				}
				for k := 1; k < len(row); k++ {
					j, q := row[k], qrow[k]
					t := k - 1
					for t >= 0 && row[t] > j {
						row[t+1], qrow[t+1] = row[t], qrow[t]
						t--
					}
					row[t+1], qrow[t+1] = j, q
				}
			}
		}
	})
}

// FromAdj assembles a Graph from explicit adjacency lists — the test-side
// constructor for synthetic graphs and slice-form oracles. adj must be
// symmetric (j in adj[i] ⟺ i in adj[j]); every edge is deduplicated and
// stored once, oriented by the lengths of links like a built graph. The
// result carries no Strengths. It panics on an edge count past the size
// cap, which only a caller-built adjacency of 2³⁰ edges can reach.
func FromAdj(links []geom.Link, f Func, adj [][]int32) *Graph {
	var edges []edge
	for i, row := range adj {
		for _, j := range row {
			if int32(i) < j {
				edges = append(edges, edge{int32(i), j})
			}
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if a.i != b.i {
			return cmp.Compare(a.i, b.i)
		}
		return cmp.Compare(a.j, b.j)
	})
	edges = slices.Compact(edges)
	for k, e := range edges {
		edges[k] = oriented(e.i, e.j, links[e.i].Length(), links[e.j].Length())
	}
	g, err := assemble(links, f, [][]edge{edges}, nil)
	if err != nil {
		panic(err)
	}
	return g
}

// classGrid indexes the link endpoints of one dyadic length class, in a
// flat open-addressed hash table of cells (linear probing, power-of-two
// capacity, load factor ≤ ½) with the per-cell member lists packed into one
// CSR members array. Integer cell coordinates keep addressing collision-free
// for any instance extent; replacing the former map[cellKey][]int32 removes
// the runtime map's hashing, bucket-probe, and per-cell slice overhead from
// the build's innermost lookup.
//
// Everything per cell lives in compact order — cells numbered in first-touch
// order — and the table holds only that compact index, so it costs 4 bytes
// per slot and is sized by the occupied cells, not by the class's links: it
// starts at 8 slots and doubles whenever a new cell would push the load
// past ½.
type classGrid struct {
	size float64 // cell side length
	maxL float64 // actual maximum link length in the class
	minL float64 // actual minimum link length in the class
	// Bounding box of the occupied cells. Scan rectangles are clamped to
	// it, so a search radius far larger than the class extent (possible for
	// LogThreshold with α near 2) costs no more than the extent itself.
	minCX, maxCX, minCY, maxCY int64
	// Open-addressed table: slot s holds the compact index of its cell, -1
	// when empty.
	mask  uint64
	table []int32
	// cellX[c], cellY[c] are the coordinates of compact cell c. The insert
	// pass walks links in Morton order, so compact order follows space and
	// so do the member lists below.
	cellX, cellY []int64
	// CSR member storage in compact cell order: the links with an endpoint
	// in cell c are members[start[c]:start[c+1]], in increasing link order.
	// start gains one entry per claimed cell.
	start   []int32
	members []int32
	// Cell-local SoA mirror, aligned with members: the endpoints and length
	// of link members[k] at msx[k]/msy[k]/mrx[k]/mry[k]/mlen[k], so scanCell
	// streams one contiguous block per cell instead of gather-loading five
	// arrays through members.
	msx, msy, mrx, mry, mlen []float64
	// Per-cell pruning metadata, compact-indexed: the bounding
	// box of the endpoints stored in the cell (tighter than the cell
	// rectangle) and the min/max member length (tightens the search radius
	// below the class-wide bound).
	bbMinX, bbMaxX, bbMinY, bbMaxY []float64
	cMinL, cMaxL                   []float64
	// fillTmp is the scatter cursor used only while BuildLookaheadCtx packs
	// members; nil afterwards.
	fillTmp []int32
}

// cellHash mixes a cell coordinate pair to a table index distribution
// (splitmix64 finalizer over independently multiplied coordinates).
func cellHash(x, y int64) uint64 {
	h := uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xc2b2ae3d27d4eb4f
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (cg *classGrid) cellCoordXY(x, y float64) (int64, int64) {
	return int64(math.Floor(x / cg.size)), int64(math.Floor(y / cg.size))
}

// cells returns the number of occupied cells.
func (cg *classGrid) cells() int { return len(cg.cellX) }

// insertCell returns the compact index of cell (x, y), claiming the next
// compact index (and a start entry) on first use. A claim that would push
// the load past ½ first doubles the table, so probe chains stay short and
// the loop always terminates.
func (cg *classGrid) insertCell(x, y int64) int32 {
	h := cellHash(x, y) & cg.mask
	for {
		c := cg.table[h]
		if c < 0 {
			if 2*(cg.cells()+1) > len(cg.table) {
				cg.grow()
				return cg.insertCell(x, y)
			}
			c = int32(cg.cells())
			cg.table[h] = c
			cg.cellX = append(cg.cellX, x)
			cg.cellY = append(cg.cellY, y)
			cg.start = append(cg.start, 0)
			return c
		}
		if cg.cellX[c] == x && cg.cellY[c] == y {
			return c
		}
		h = (h + 1) & cg.mask
	}
}

// grow doubles the table (to 8 slots when empty) and re-inserts every
// claimed cell from the compact key arrays.
func (cg *classGrid) grow() {
	cg.table = make([]int32, max(8, 2*len(cg.table)))
	for s := range cg.table {
		cg.table[s] = -1
	}
	cg.mask = uint64(len(cg.table) - 1)
	for c, x := range cg.cellX {
		h := cellHash(x, cg.cellY[c]) & cg.mask
		for cg.table[h] >= 0 {
			h = (h + 1) & cg.mask
		}
		cg.table[h] = int32(c)
	}
}

// cellAt returns the compact index of cell (x, y), -1 when the cell is
// empty.
func (cg *classGrid) cellAt(x, y int64) int32 {
	h := cellHash(x, y) & cg.mask
	for {
		c := cg.table[h]
		if c < 0 || (cg.cellX[c] == x && cg.cellY[c] == y) {
			return c
		}
		h = (h + 1) & cg.mask
	}
}

func (cg *classGrid) extend(x, y int64) {
	cg.minCX = min(cg.minCX, x)
	cg.maxCX = max(cg.maxCX, x)
	cg.minCY = min(cg.minCY, y)
	cg.maxCY = max(cg.maxCY, y)
}

// clampCell converts a floored cell coordinate to int64, clamped to
// [lo, hi]. The comparison-first form keeps out-of-int64-range values
// (possible when the search radius dwarfs the cell size) away from the
// implementation-defined float→int conversion; NaN clamps to lo.
func clampCell(v float64, lo, hi int64) int64 {
	if !(v > float64(lo)) {
		return lo
	}
	if v > float64(hi) {
		return hi
	}
	return int64(v)
}

// edgeBufPool recycles the per-worker flat edge buffers across builds, so a
// batch of same-scale instances stops paying the edge-list allocation per
// conflict graph. Buffers are returned once assemble has scattered them,
// or when the build fails or is cancelled.
var edgeBufPool sync.Pool

// pooledOut counts the pooled edge and strength buffers taken and not yet
// handed back: zero whenever no build is running.
var pooledOut atomic.Int64

func getEdgeBuf() *[]edge {
	pooledOut.Add(1)
	if p, ok := edgeBufPool.Get().(*[]edge); ok {
		*p = (*p)[:0]
		return p
	}
	return new([]edge)
}

// strengthBufPool recycles the per-worker strength buffers of annotated
// builds, mirroring edgeBufPool entry for entry.
var strengthBufPool sync.Pool

func getStrengthBuf() *[]float32 {
	pooledOut.Add(1)
	if p, ok := strengthBufPool.Get().(*[]float32); ok {
		*p = (*p)[:0]
		return p
	}
	return new([]float32)
}

// mortonOrder returns the link indices sorted by the Morton (Z-order) code
// of each link midpoint over the instance bounding box, ties broken by
// original index. The build relabels links into this order so that spatially
// close links — the only ones that ever test each other — also sit close in
// index space. The order affects discovery order only: edges are emitted
// under original indices and rows are sorted afterwards, so the resulting
// CSR is bit-identical to an unrelabeled build. Degenerate extents (all
// midpoints equal, or a non-finite spread) collapse to the identity order.
func mortonOrder(links []geom.Link) []int32 {
	n := len(links)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, l := range links {
		x := (l.S.X + l.R.X) / 2
		y := (l.S.Y + l.R.Y) / 2
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	const side = 1 << 16 // 16 bits per axis; the code fills the key's top 32 bits
	sx := (side - 1) / (maxX - minX)
	sy := (side - 1) / (maxY - minY)
	if math.IsInf(sx, 0) || math.IsNaN(sx) {
		sx = 0
	}
	if math.IsInf(sy, 0) || math.IsNaN(sy) {
		sy = 0
	}
	// Pack (code, index) into one uint64 per link so the sort runs on a flat
	// integer slice — no comparator indirection, and ties resolve by index.
	keys := make([]uint64, n)
	for i, l := range links {
		qx := ((l.S.X+l.R.X)/2 - minX) * sx
		qy := ((l.S.Y+l.R.Y)/2 - minY) * sy
		if !(qx > 0) {
			qx = 0
		} else if qx > side-1 {
			qx = side - 1
		}
		if !(qy > 0) {
			qy = 0
		} else if qy > side-1 {
			qy = side - 1
		}
		code := interleave16(uint64(qx)) | interleave16(uint64(qy))<<1
		keys[i] = code<<32 | uint64(uint32(i))
	}
	slices.Sort(keys)
	ord := make([]int32, n)
	for k, key := range keys {
		ord[k] = int32(uint32(key))
	}
	return ord
}

// interleave16 spreads the low 16 bits of v to the even bit positions.
func interleave16(v uint64) uint64 {
	v &= 0xffff
	v = (v | v<<8) & 0x00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// ErrDegenerate reports an input the bucketed build cannot index: a link
// length that is non-positive or non-finite (no dyadic length class), a
// threshold f(2) that is not finite and positive, a grid cell side l·f(2)
// outside float64's positive finite range, or cells so small against the
// coordinates of their class (|x|/side ≥ 2⁶²) that a cell index would
// overflow int64, which a tiny γ under a steep family reaches. Builders
// wrap it with the reason; test with errors.Is. A length ratio or search
// radius that overflows is not degenerate: the infinite radius clamps to
// the class's occupied cells, and the pair test (like the pairwise oracle)
// then sees an infinite threshold.
var ErrDegenerate = errors.New("conflict: degenerate input")

// BuildLookaheadCtx constructs G_f(links) for f = fam.At(gm) with
// Graph.Strengths populated: one-sided CSR arrays with rows sorted
// ascending, plus one conflict strength per edge, so FilterCtx can
// materialize the graph at any smaller γ without another build. It is the
// package's only builder: a grid-bucketed parallel search for every input
// size. A degenerate input gets a wrapped ErrDegenerate, and an edge count
// past the size cap a wrapped ErrTooManyEdges (a large γ makes G_γ
// complete). The candidate search
// checks ctx at block boundaries, so a cancel or deadline stops a large
// build mid-flight with (nil, ctx.Err()) — a partial edge set is never
// assembled into a Graph.
//
// The pair test computes the threshold as lmin·(gm·h(x)) with h = fam.H —
// the exact expression Family.At's contract makes f.Eval compute — and
// every accepted edge additionally gets its conflict strength (see
// strengthOf).
//
// Correctness sketch: links are partitioned into dyadic length classes
// [b_c, b_{c+1}) by comparison against precomputed boundaries, so class
// order respects length order. A pair (i, j) with class(j) ≥ class(i)
// conflicts only if d(i,j) ≤ l_min·f(l_max/l_min); monotone f bounds that
// threshold by l_i·f(m_c/n_c) within i's own class and by l_i·f(m_c/l_i)
// for higher classes, where m_c, n_c are the actual max/min lengths stored
// per class. Scanning every grid cell intersecting the disks of that radius
// around both endpoints of i therefore yields a candidate superset; the
// exact pair test then reproduces the pairwise edge set. Each edge is
// discovered exactly once, owned by the lower-class (ties: lower-index)
// endpoint, oriented on the spot from the two lengths the pair test already
// holds, and collected into per-worker flat edge buffers, which assemble
// scatters into the CSR arrays without merging them first — no per-vertex
// slices and no merged copy anywhere.
func BuildLookaheadCtx(ctx context.Context, links []geom.Link, fam Family, gm float64) (*Graph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := fam.At(gm)
	n := len(links)
	lens := make([]float64, n)
	lmin, lmax := math.Inf(1), 0.0
	for i, l := range links {
		le := l.Length()
		if !(le > 0) || math.IsInf(le, 1) {
			return nil, fmt.Errorf("%w: link %d has length %g", ErrDegenerate, i, le)
		}
		lens[i] = le
		lmin = math.Min(lmin, le)
		lmax = math.Max(lmax, le)
	}
	f2 := f.Eval(2)
	if !(f2 > 0) || math.IsInf(f2, 1) {
		return nil, fmt.Errorf("%w: %s has f(2) = %g", ErrDegenerate, f.Name, f2)
	}
	// Every class cell side maxL·f(2) lies between these two products.
	if lo, hi := lmin*f2, lmax*f2; !(lo > 0) || math.IsInf(hi, 1) {
		return nil, fmt.Errorf("%w: %s cell sizes [%g, %g] out of range", ErrDegenerate, f.Name, lo, hi)
	}

	// Spatial relabeling: the build works in Morton (Z-order) indices of the
	// link midpoints, so every structure the candidate scan touches per
	// probe — the coordinate SoA, the length table, the stamp array, and the
	// cell member lists — is clustered in index space. At 10⁶ links the
	// original (generation-order) indices make nearly every candidate load a
	// cache miss; the relabeled build emits each edge under the original
	// indices (orig) and the CSR rows are sorted afterwards, so the output is
	// bit-identical to an unrelabeled build.
	orig := mortonOrder(links)
	plens := make([]float64, n)
	sxs := make([]float64, n)
	sys := make([]float64, n)
	rxs := make([]float64, n)
	rys := make([]float64, n)
	for k, o := range orig {
		l := links[o]
		plens[k] = lens[o]
		sxs[k], sys[k] = l.S.X, l.S.Y
		rxs[k], rys[k] = l.R.X, l.R.Y
	}
	lens = plens

	grids, class, maxAbs, err := indexClasses(lens, sxs, sys, rxs, rys, lmin, lmax, f, f2)
	if err != nil {
		return nil, err
	}

	bs := &bucketedSearch{
		lens: lens, class: class, grids: grids, f: f, fConst: f.Const,
		h: fam.H, gm: gm, orig: orig, maxAbs: maxAbs,
		sx: sxs, sy: sys, rx: rxs, ry: rys,
	}

	// Parallel candidate search. Each worker appends the edges its vertices
	// own — same-class neighbors j > i and all conflicting neighbors in
	// strictly higher classes — to one flat per-worker edge buffer and an
	// index-aligned strength buffer, both drawn from the shared pools
	// (returned once assemble has scattered them, or on any error).
	var mu sync.Mutex
	var bufs []*[]edge
	var qbufs []*[]float32 // index-aligned with bufs
	var stats BuildStats
	defer func() {
		for _, b := range bufs {
			edgeBufPool.Put(b)
		}
		for _, b := range qbufs {
			strengthBufPool.Put(b)
		}
		pooledOut.Add(-int64(len(bufs) + len(qbufs)))
	}()
	err = par.ForBlocksCtx(ctx, n, 64, func(next func() (int, int, bool)) {
		stamp := make([]int32, n)
		for i := range stamp {
			stamp[i] = -1
		}
		bufp, qbufp := getEdgeBuf(), getStrengthBuf()
		buf, qbuf := *bufp, *qbufp
		// One-shot buffer reservation: at large sizes append grows slices by
		// only ~1.25×, so accumulating tens of millions of edges through the
		// default growth path allocates (and discards) several times the
		// final footprint — enough churn to drag whole GC cycles into big
		// builds. After a 1/16 prefix of this worker's expected share,
		// extrapolate the final count and reserve it once; a low estimate
		// just resumes normal append growth.
		seen, grown := 0, false
		share := n/max(runtime.GOMAXPROCS(0), 1) + 1
		var wst BuildStats
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				bs.searchLink(int32(i), stamp, &buf, &qbuf, &wst)
			}
			seen += hi - lo
			if !grown && seen >= share/16 && seen >= 4096 && len(buf) > 0 {
				grown = true
				proj := int(float64(len(buf)) / float64(seen) * float64(share) * 1.15)
				if proj > cap(buf) {
					buf = append(make([]edge, 0, proj), buf...)
					qbuf = append(make([]float32, 0, proj), qbuf...)
				}
			}
		}
		*bufp, *qbufp = buf, qbuf
		mu.Lock()
		bufs = append(bufs, bufp)
		qbufs = append(qbufs, qbufp)
		stats.Add(wst)
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	// Workers that drew no block left empty buffers; dropping them keeps
	// the round-robin deal in assemble from idling a scatter group. qs stays
	// non-nil even with no edges: the graph must be marked filterable.
	edges := make([][]edge, 0, len(bufs))
	qs := make([][]float32, 0, len(bufs))
	for k, b := range bufs {
		if len(*b) > 0 {
			edges = append(edges, *b)
			qs = append(qs, *qbufs[k])
		}
	}
	g, err := assemble(links, f, edges, qs)
	if err != nil {
		return nil, err
	}
	g.Stats = stats
	return g, nil
}

// indexClasses buckets the links — given as Morton-ordered lengths and
// endpoint coordinates — into dyadic length classes and builds each class's
// cell grid with side maxL·f(2): the cell table, the member lists with their
// SoA mirrors, and the per-cell pruning metadata. It returns the grids
// (nil for an empty class), each link's class, and the largest coordinate
// magnitude. A class whose cell indices would overflow int64 makes the
// input degenerate.
func indexClasses(lens, sxs, sys, rxs, rys []float64, lmin, lmax float64, f Func, f2 float64) ([]*classGrid, []int, float64, error) {
	// Dyadic class boundaries b_c = lmin·2^c, assigned by comparison (not
	// floating log2) so that classification is exactly monotone in length.
	bounds := []float64{lmin}
	for b := lmin * 2; b <= lmax; b *= 2 {
		bounds = append(bounds, b)
	}
	n, nc := len(lens), len(bounds)
	class := make([]int, n)
	grids := make([]*classGrid, nc)
	farC := make([]float64, nc) // largest coordinate magnitude per class
	for i := 0; i < n; i++ {
		c := sort.SearchFloat64s(bounds, lens[i])
		if c == nc || bounds[c] > lens[i] {
			c--
		}
		class[i] = c
		farC[c] = math.Max(farC[c], math.Max(
			math.Max(math.Abs(sxs[i]), math.Abs(sys[i])),
			math.Max(math.Abs(rxs[i]), math.Abs(rys[i]))))
		if grids[c] == nil {
			grids[c] = &classGrid{
				maxL: lens[i], minL: lens[i],
				minCX: math.MaxInt64, maxCX: math.MinInt64,
				minCY: math.MaxInt64, maxCY: math.MinInt64,
			}
		} else {
			g := grids[c]
			g.maxL = math.Max(g.maxL, lens[i])
			g.minL = math.Min(g.minL, lens[i])
		}
	}
	maxAbs := 0.0
	for c, cg := range grids {
		if cg == nil {
			continue
		}
		maxAbs = math.Max(maxAbs, farC[c])
		cg.size = cg.maxL * f2
		// Cell indices floor(x/size) of the class must convert to int64.
		if q := farC[c] / cg.size; !(q < 1<<62) {
			return nil, nil, 0, fmt.Errorf("%w: %s cell index %g overflows int64", ErrDegenerate, f.Name, q)
		}
		cg.grow()
		cg.start = []int32{0}
	}
	// Insert pass: claim cells and count per-cell members (into start[c+1],
	// ready for the prefix sum), then scatter link indices. A link whose two
	// endpoints share a cell is stored once.
	cellS := make([]int32, n)
	cellR := make([]int32, n)
	for i := 0; i < n; i++ {
		cg := grids[class[i]]
		sx, sy := cg.cellCoordXY(sxs[i], sys[i])
		rx, ry := cg.cellCoordXY(rxs[i], rys[i])
		c := cg.insertCell(sx, sy)
		cg.start[c+1]++
		cg.extend(sx, sy)
		cellS[i] = c
		cellR[i] = -1
		if rx != sx || ry != sy {
			c = cg.insertCell(rx, ry)
			cg.start[c+1]++
			cg.extend(rx, ry)
			cellR[i] = c
		}
	}
	for _, cg := range grids {
		if cg == nil {
			continue
		}
		cells := cg.cells()
		for c := 0; c < cells; c++ {
			cg.start[c+1] += cg.start[c]
		}
		nm := int(cg.start[cells])
		cg.members = make([]int32, nm)
		cg.msx = make([]float64, nm)
		cg.msy = make([]float64, nm)
		cg.mrx = make([]float64, nm)
		cg.mry = make([]float64, nm)
		cg.mlen = make([]float64, nm)
		cg.bbMinX = make([]float64, cells)
		cg.bbMaxX = make([]float64, cells)
		cg.bbMinY = make([]float64, cells)
		cg.bbMaxY = make([]float64, cells)
		cg.cMinL = make([]float64, cells)
		cg.cMaxL = make([]float64, cells)
		for c := 0; c < cells; c++ {
			cg.bbMinX[c], cg.bbMaxX[c] = math.Inf(1), math.Inf(-1)
			cg.bbMinY[c], cg.bbMaxY[c] = math.Inf(1), math.Inf(-1)
			cg.cMinL[c], cg.cMaxL[c] = math.Inf(1), 0
		}
	}
	// Scatter, each class advancing its own copy of the start offsets. The
	// same pass fills the cell-local SoA mirrors and folds each stored
	// occurrence into its cell's pruning metadata: the endpoint bbox grows by
	// the endpoint(s) that actually lie in the cell (the other endpoint is
	// indexed — and found — through its own cell), and the member-length
	// extremes grow by the link length.
	for _, cg := range grids {
		if cg == nil {
			continue
		}
		cg.fillTmp = append([]int32(nil), cg.start[:cg.cells()]...)
	}
	extendCell := func(cg *classGrid, ci int32, x, y, le float64) {
		cg.bbMinX[ci] = math.Min(cg.bbMinX[ci], x)
		cg.bbMaxX[ci] = math.Max(cg.bbMaxX[ci], x)
		cg.bbMinY[ci] = math.Min(cg.bbMinY[ci], y)
		cg.bbMaxY[ci] = math.Max(cg.bbMaxY[ci], y)
		cg.cMinL[ci] = math.Min(cg.cMinL[ci], le)
		cg.cMaxL[ci] = math.Max(cg.cMaxL[ci], le)
	}
	for i := 0; i < n; i++ {
		cg := grids[class[i]]
		ci := cellS[i]
		p := cg.fillTmp[ci]
		cg.fillTmp[ci]++
		cg.members[p] = int32(i)
		cg.msx[p], cg.msy[p] = sxs[i], sys[i]
		cg.mrx[p], cg.mry[p] = rxs[i], rys[i]
		cg.mlen[p] = lens[i]
		extendCell(cg, ci, sxs[i], sys[i], lens[i])
		if r := cellR[i]; r >= 0 {
			p = cg.fillTmp[r]
			cg.fillTmp[r]++
			cg.members[p] = int32(i)
			cg.msx[p], cg.msy[p] = sxs[i], sys[i]
			cg.mrx[p], cg.mry[p] = rxs[i], rys[i]
			cg.mlen[p] = lens[i]
			extendCell(cg, r, rxs[i], rys[i], lens[i])
		} else {
			// Both endpoints share the cell: the edge to any candidate can
			// only be discovered here, so the bbox must cover both.
			extendCell(cg, ci, rxs[i], rys[i], lens[i])
		}
	}
	for _, cg := range grids {
		if cg != nil {
			cg.fillTmp = nil
		}
	}
	return grids, class, maxAbs, nil
}

// bucketedSearch carries the read-only state of one bucketed candidate
// search: precomputed lengths and classes, the per-class cell tables, and
// the link endpoints in structure-of-arrays form for the scan kernel. All
// per-link arrays are in Morton-relabeled index space; orig maps a relabeled
// index back to the caller's link index for edge emission.
type bucketedSearch struct {
	lens           []float64
	class          []int
	grids          []*classGrid
	f              Func
	fConst         float64                 // Func.Const: > 0 ⟹ skip the Eval and h closures
	h              func(x float64) float64 // the family factor: f = γ·h
	gm             float64                 // build γ
	orig           []int32
	maxAbs         float64 // largest coordinate magnitude; scales the prune slack
	sx, sy, rx, ry []float64
}

// axisDist returns the distance from p to the interval [lo, hi] (0 inside).
func axisDist(p, lo, hi float64) float64 {
	if p < lo {
		return lo - p
	}
	if p > hi {
		return p - hi
	}
	return 0
}

// cellNear reports whether the cell rectangle [cx·s,(cx+1)·s]×[cy·s,(cy+1)·s]
// lies within the padded radius² rp2 of either endpoint of the scanning
// link. A cell beyond rp of both endpoints cannot hold a conflicting
// candidate: a conflicting pair has some endpoint q within thr ≤ r of some
// endpoint p of i, and q's cell is then within r (+ the cancellation slack
// folded into rp) of p. Skipping the cell therefore drops no edge, and in
// the rectangle walk it also skips the cell's hash probe.
func cellNear(cx, cy int64, s, rp2, sx, sy, rx, ry float64) bool {
	lox, loy := float64(cx)*s, float64(cy)*s
	hix, hiy := lox+s, loy+s
	dx, dy := axisDist(sx, lox, hix), axisDist(sy, loy, hiy)
	if dx*dx+dy*dy <= rp2 {
		return true
	}
	dx, dy = axisDist(rx, lox, hix), axisDist(ry, loy, hiy)
	return dx*dx+dy*dy <= rp2
}

// searchLink appends to *out every edge that link i owns, oriented and
// under original indices, and each edge's conflict strength to *qout in
// lockstep.
// st accumulates the worker's pruning counters.
func (b *bucketedSearch) searchLink(i int32, stamp []int32, out *[]edge, qout *[]float32, st *BuildStats) {
	li := b.lens[i]
	ci := b.class[i]
	isx, isy := b.sx[i], b.sy[i]
	irx, iry := b.rx[i], b.ry[i]
	for c := ci; c < len(b.grids); c++ {
		cg := b.grids[c]
		if cg == nil {
			continue
		}
		// Radius bound; see BuildLookaheadCtx. The 1e-9 relative pad absorbs
		// the few-ulp slop between this bound and the exact threshold
		// computed inside Conflicting.
		var x float64
		if c == ci {
			x = cg.maxL / cg.minL
		} else {
			x = cg.maxL / li
		}
		r := li * b.f.Eval(x) * (1 + 1e-9)
		s := cg.size
		// Cell pruning pad: r plus a slack dominating the worst-case absolute
		// cancellation error of the rectangle arithmetic in cellNear (a few
		// thousand ulps at the magnitude of the largest operand involved), so
		// a cell holding a true candidate can never be pruned by rounding.
		rp := r + (b.maxAbs+r+2*s)*1e-12
		rp2 := rp * rp
		// One scan over the union rectangle of both endpoint disks, clamped
		// to the class's occupied-cell bounding box (cells outside it are
		// empty, and clamping keeps a huge r — e.g. LogThreshold with α near
		// 2, where r/size can exceed 1e6 — from inflating the loop bounds).
		// The union costs no more than the former two per-endpoint passes:
		// the disks overlap heavily whenever r ≥ |SR| = l_i, and cellNear
		// prunes the cells that only the bounding rectangle (not either
		// disk) covers.
		x0 := clampCell(math.Floor((math.Min(isx, irx)-r)/s), cg.minCX, cg.maxCX)
		x1 := clampCell(math.Floor((math.Max(isx, irx)+r)/s), cg.minCX, cg.maxCX)
		y0 := clampCell(math.Floor((math.Min(isy, iry)-r)/s), cg.minCY, cg.maxCY)
		y1 := clampCell(math.Floor((math.Max(isy, iry)+r)/s), cg.minCY, cg.maxCY)
		if float64(x1-x0+1)*float64(y1-y0+1) > float64(cg.cells()) {
			// The rectangle holds more cells than the class occupies
			// (sparse class spread over a wide extent): iterating it
			// would mostly probe empty cells, so walk the occupied cells
			// and test rectangle membership instead. Either walk tests the
			// same cells; only the order edges are found in differs.
			for cc, kx := range cg.cellX {
				ky := cg.cellY[cc]
				if kx < x0 || kx > x1 || ky < y0 || ky > y1 {
					continue
				}
				if !cellNear(kx, ky, s, rp2, isx, isy, irx, iry) {
					continue
				}
				b.scanCandCell(i, ci == c, li, cg, int32(cc), stamp, out, qout, st)
			}
			continue
		}
		for cx := x0; cx <= x1; cx++ {
			for cy := y0; cy <= y1; cy++ {
				if !cellNear(cx, cy, s, rp2, isx, isy, irx, iry) {
					continue
				}
				cc := cg.cellAt(cx, cy)
				if cc < 0 {
					continue
				}
				b.scanCandCell(i, ci == c, li, cg, cc, stamp, out, qout, st)
			}
		}
	}
}

// scanCandCell applies the per-cell prunes to the candidate cell ic and
// streams its members through scanCell when it survives. Two rejections run
// before any member is loaded:
//
//  1. Tightened radius. The class-level radius bounds every pair threshold
//     through the class-wide length extremes; replaying the same monotone
//     argument over the cell's own member-length extremes (gathered at
//     freeze time) gives a radius that is never larger — for G_γ a cell of
//     short same-class members shrinks it to cMaxL·γ.
//  2. Endpoint-bbox rect distance. A conflicting candidate j has an in-cell
//     endpoint q with |pq| ≤ thr ≤ rc for some endpoint p of i, and q lies
//     in the cell's stored-endpoint bounding box, so a cell whose bbox is
//     farther than the (slack-padded) tightened radius from both endpoints
//     of i cannot hold an owned edge. The bbox is tighter than the cell
//     rectangle cellNear tests, often by the full cell side.
//
// The surviving cell's members are then distance-tested against rc² instead
// of the class radius, tightening the per-candidate reject as well.
func (b *bucketedSearch) scanCandCell(i int32, sameClass bool, li float64, cg *classGrid, ic int32,
	stamp []int32, out *[]edge, qout *[]float32, st *BuildStats) {
	cmax := cg.cMaxL[ic]
	var rc float64
	if b.fConst > 0 {
		m := li
		if sameClass && cmax < li {
			m = cmax
		}
		rc = m * b.fConst * (1 + 1e-9)
	} else if sameClass {
		lo := math.Min(li, cg.cMinL[ic])
		hi := math.Max(li, cmax)
		rc = math.Min(li, cmax) * b.f.Eval(hi/lo) * (1 + 1e-9)
	} else {
		rc = li * b.f.Eval(cmax/li) * (1 + 1e-9)
	}
	// Same absolute slack as the class-level pad: dominates the cancellation
	// error of the rect-distance arithmetic, so rounding can never prune a
	// cell holding a true candidate.
	rcp := rc + (b.maxAbs+rc+2*cg.size)*1e-12
	rcp2 := rcp * rcp
	bnx, bxx := cg.bbMinX[ic], cg.bbMaxX[ic]
	bny, bxy := cg.bbMinY[ic], cg.bbMaxY[ic]
	isx, isy := b.sx[i], b.sy[i]
	dx, dy := axisDist(isx, bnx, bxx), axisDist(isy, bny, bxy)
	if dx*dx+dy*dy > rcp2 {
		irx, iry := b.rx[i], b.ry[i]
		dx, dy = axisDist(irx, bnx, bxx), axisDist(iry, bny, bxy)
		if dx*dx+dy*dy > rcp2 {
			st.CellsPruned++
			return
		}
	}
	st.CellsScanned++
	b.scanCell(i, sameClass, rc*rc, cg, cg.start[ic], cg.start[ic+1], stamp, out, qout, st)
}

// scanCell runs the exact conflict test against every candidate in one grid
// cell, recording the edges link i owns. Candidate coordinates and lengths
// stream from the cell-local SoA mirror (one contiguous block per cell — no
// gather-loads through members), and for constant f (G_γ) the threshold
// skips the factor h; the arithmetic — min over the four endpoint squared
// distances against (l_min·(γ·h(l_max/l_min)))², the floating-point
// expression f.Eval computes by Family.At's contract — is
// expression-identical to Conflicting, so the edge set matches the exact
// pairwise scan bit-for-bit. Each accepted edge is appended oriented by the
// two lengths in hand (see oriented), and its strength, rounded up to
// float32, to *qout.
//
// The loop is ordered cheapest-reject-first: the squared distance (pure SoA
// loads and arithmetic) is compared against rr — the squared padded
// per-cell radius from scanCandCell, which upper-bounds every pair threshold
// this scan can produce — before the threshold function is evaluated, and
// the stamp array is only consulted (and written) for accepted pairs, so
// rejected candidates never touch it. A candidate reachable through two
// cells is simply tested twice; the stamp still deduplicates the emitted
// edge.
func (b *bucketedSearch) scanCell(i int32, sameClass bool, rr float64,
	cg *classGrid, mlo, mhi int32, stamp []int32, out *[]edge, qout *[]float32, st *BuildStats) {
	li := b.lens[i]
	isx, isy := b.sx[i], b.sy[i]
	irx, iry := b.rx[i], b.ry[i]
	members := cg.members[mlo:mhi]
	msx := cg.msx[mlo:mhi:mhi]
	msy := cg.msy[mlo:mhi:mhi]
	mrx := cg.mrx[mlo:mhi:mhi]
	mry := cg.mry[mlo:mhi:mhi]
	mlen := cg.mlen[mlo:mhi:mhi]
	for k, j := range members {
		if j == i || (sameClass && j < i) {
			continue
		}
		jsx, jsy := msx[k], msy[k]
		jrx, jry := mrx[k], mry[k]
		st.CandScanned++
		dx, dy := isx-jsx, isy-jsy
		d := dx*dx + dy*dy
		dx, dy = isx-jrx, isy-jry
		if v := dx*dx + dy*dy; v < d {
			d = v
		}
		dx, dy = irx-jsx, iry-jsy
		if v := dx*dx + dy*dy; v < d {
			d = v
		}
		dx, dy = irx-jrx, iry-jry
		if v := dx*dx + dy*dy; v < d {
			d = v
		}
		if d > rr {
			continue
		}
		lmin, lmax := li, mlen[k]
		if lmin > lmax {
			lmin, lmax = lmax, lmin
		}
		var thr, hx float64
		if b.fConst > 0 {
			thr = lmin * b.fConst
			hx = 1
		} else {
			hx = b.h(lmax / lmin)
			thr = lmin * (b.gm * hx)
		}
		if d <= thr*thr {
			if stamp[j] == i {
				continue
			}
			stamp[j] = i
			st.CandAccepted++
			*out = append(*out, oriented(b.orig[i], b.orig[j], li, mlen[k]))
			*qout = append(*qout, roundUp32(strengthOf(d, lmin, hx, b.gm)))
		}
	}
}

// N returns the number of vertices (links).
func (g *Graph) N() int { return len(g.Links) }

// Edges returns the number of undirected edges: one row entry each.
func (g *Graph) Edges() int { return len(g.Neighbors) }

// Row returns the sorted neighbors of vertex i that come before it in
// first-fit order (see Graph); i's later neighbors are in their own rows.
// The slice aliases the graph's CSR storage; callers must not modify it
// (test constructors like FromAdj excepted).
func (g *Graph) Row(i int) []int32 {
	return g.Neighbors[g.RowPtr[i]:g.RowPtr[i+1]]
}

// MaxBackDegree returns the longest row: the largest number of neighbors
// any vertex has before it in first-fit order (0 for an empty graph).
// First-fit in that order never uses more than MaxBackDegree()+1 colors.
func (g *Graph) MaxBackDegree() int {
	d := int32(0)
	for i := 0; i < len(g.RowPtr)-1; i++ {
		if w := g.RowPtr[i+1] - g.RowPtr[i]; w > d {
			d = w
		}
	}
	return int(d)
}

// MaxDegree returns the maximum undirected vertex degree (0 for an empty
// graph): a vertex's row length plus the number of rows it appears in,
// counted in one pass over the entries.
func (g *Graph) MaxDegree() int {
	deg := make([]int32, g.N())
	for i := range deg {
		deg[i] = g.RowPtr[i+1] - g.RowPtr[i]
	}
	for _, j := range g.Neighbors {
		deg[j]++
	}
	d := int32(0)
	for _, w := range deg {
		d = max(d, w)
	}
	return int(d)
}

// AverageDegree returns 2·|E|/|V| (0 for an empty graph).
func (g *Graph) AverageDegree() float64 {
	if len(g.Links) == 0 {
		return 0
	}
	return 2 * float64(g.Edges()) / float64(len(g.Links))
}
