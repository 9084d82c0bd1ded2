// Package coloring provides the scheduling algorithms of Sec. 3: the greedy
// first-fit coloring of conflict graphs (a constant-factor approximation
// because the graphs have constant inductive independence, Appendix A), a
// DSATUR baseline, a parallel Jones–Plassmann coloring, and the first-fit
// refinement of Theorem 2 that splits an MST's links into a constant number
// of sets S with I(i, S⁺ᵢ) < 1.
//
// All colorings walk the conflict graph's CSR rows. The Workspace variants
// are the production hot path: every scratch buffer is owned by the
// Workspace and reused across calls, so steady-state coloring performs zero
// allocations per vertex (see the AllocsPerRun guards in the tests).
package coloring

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"aggrate/internal/conflict"
	"aggrate/internal/geom"
	"aggrate/internal/par"
	"aggrate/internal/sinr"
)

// Workspace owns the reusable scratch buffers of the coloring algorithms.
// A Workspace is not safe for concurrent use; create one per goroutine.
// Buffers grow on demand and persist across calls, so repeated colorings of
// same-sized graphs allocate nothing.
type Workspace struct {
	usedBy   []int32 // usedBy[c] = stamp of the last vertex that saw color c among its neighbors
	colors32 []int32 // FirstFit's narrow color shadow (see there)
	order    []int   // vertex order buffer (LengthOrder / IndexOrder)
	keys     []float64
	sorter   lengthSorter

	// LengthOrder radix-sort state.
	rk, rkTmp []uint64
	orderTmp  []int

	// DSATUR state.
	heap    []satEntry // indexed max-heap of the uncolored vertices
	pos     []int32    // pos[v] = heap index of uncolored vertex v
	satBits []uint64   // per-vertex neighbor-color bitsets, flat with a per-graph stride

	// Jones–Plassmann state.
	prio   []uint64
	wait   []int32
	active []int32
	winner []int32
}

// NewWorkspace returns an empty Workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow returns buf resized to n, reallocating only when capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// FirstFit colors the conflict graph by first-fit along the given vertex
// order: each vertex gets the smallest color not used by an already-colored
// neighbor. order must be a permutation of [0, g.N()). colors must have
// length g.N(); it is overwritten with one color per vertex, colors
// numbered from 0. Returns the number of colors used.
//
// The inner loop is allocation-free: "color c seen among v's neighbors" is
// tracked by stamping usedBy[c] with v's position in the order, so there is
// no per-vertex clearing and no map.
func (ws *Workspace) FirstFit(g *conflict.Graph, order []int, colors []int) int {
	n := g.N()
	// The sweep tracks colors in an int32 shadow and copies out once at the
	// end: colors[w] is the one random-access load per neighbor visit, and
	// halving its width halves the cache footprint of the hottest loop of
	// the coloring stage (the sequential copy-out is negligible next to it).
	ws.colors32 = grow(ws.colors32, n)
	c32 := ws.colors32
	for i := range c32 {
		c32[i] = -1
	}
	ws.usedBy = grow(ws.usedBy, n+1)
	for i := range ws.usedBy {
		ws.usedBy[i] = -1
	}
	usedBy := ws.usedBy
	rowPtr, nbr := g.RowPtr, g.Neighbors
	numColors := int32(0)
	for t, v := range order {
		for _, w := range nbr[rowPtr[v]:rowPtr[v+1]] {
			if c := c32[w]; c >= 0 {
				usedBy[c] = int32(t)
			}
		}
		c := int32(0)
		for usedBy[c] == int32(t) {
			c++
		}
		c32[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	for i, c := range c32 {
		colors[i] = int(c)
	}
	return int(numColors)
}

// IndexOrder returns the identity order 0, 1, …, n-1: first-fit in input
// order, the length-oblivious baseline.
func IndexOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// lengthSorter sorts a vertex order by precomputed length keys,
// non-increasing, ties by index ascending — a total order, so sort.Sort
// yields the same permutation a stable sort would.
type lengthSorter struct {
	order []int
	keys  []float64
}

func (s *lengthSorter) Len() int { return len(s.order) }
func (s *lengthSorter) Less(a, b int) bool {
	va, vb := s.order[a], s.order[b]
	ka, kb := s.keys[va], s.keys[vb]
	if ka != kb {
		return ka > kb // longest first
	}
	return va < vb
}
func (s *lengthSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }

// lengthRadixMin is the vertex count from which LengthOrder switches to the
// LSD radix sort; below it the comparison sort wins on constant factors and
// avoids the three radix scratch buffers.
const lengthRadixMin = 128

// LengthOrder returns the greedy strategy's first-fit vertex order: links in
// non-increasing length, ties by index. Lengths are computed once per
// vertex into a reused key buffer (not once per comparison), and the
// returned slice aliases the Workspace; callers must copy it to keep it
// across calls.
//
// Above lengthRadixMin vertices the sort is a byte-wise LSD radix sort over
// the order-reversed float bit patterns: each pass is stable and the input
// is the identity order, so ties land index-ascending — the same total
// order the comparison sort yields, in linear time.
func (ws *Workspace) LengthOrder(g *conflict.Graph) []int {
	n := g.N()
	ws.order = grow(ws.order, n)
	ws.keys = grow(ws.keys, n)
	for i := 0; i < n; i++ {
		ws.order[i] = i
		ws.keys[i] = g.Links[i].Length()
	}
	if n < lengthRadixMin {
		ws.sorter.order, ws.sorter.keys = ws.order, ws.keys
		sort.Sort(&ws.sorter)
		return ws.order
	}
	ws.radixSortByLength(n)
	return ws.order
}

// radixSortByLength sorts ws.order[:n] by ws.keys non-increasing, ties by
// index ascending, via a stable LSD radix sort on uint64 images of the
// keys. The image of a float is monotone-increasing in its value (sign bit
// flipped for positives, all bits for negatives), complemented so that
// ascending radix order is descending key order. Passes whose byte is
// constant across all keys are skipped — for geometric lengths the top
// exponent bytes almost always are.
func (ws *Workspace) radixSortByLength(n int) {
	ws.rk = grow(ws.rk, n)
	ws.rkTmp = grow(ws.rkTmp, n)
	ws.orderTmp = grow(ws.orderTmp, n)
	for i := 0; i < n; i++ {
		b := math.Float64bits(ws.keys[ws.order[i]])
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		ws.rk[i] = ^b
	}
	src, dst := ws.order[:n], ws.orderTmp[:n]
	ksrc, kdst := ws.rk[:n], ws.rkTmp[:n]
	var count [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, k := range ksrc {
			count[(k>>shift)&0xff]++
		}
		if count[(ksrc[0]>>shift)&0xff] == n {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			b := (ksrc[i] >> shift) & 0xff
			pos := count[b]
			count[b]++
			dst[pos] = src[i]
			kdst[pos] = ksrc[i]
		}
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
	}
	if &src[0] != &ws.order[0] {
		copy(ws.order[:n], src)
	}
}

// satEntry is the DSATUR heap entry of one uncolored vertex.
type satEntry struct {
	v        int32
	sat, deg int32
}

// satLess is the DSATUR priority: saturation desc, degree desc, index asc.
func satLess(a, b satEntry) bool {
	if a.sat != b.sat {
		return a.sat > b.sat
	}
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.v < b.v
}

// satUp and satDown restore the heap order around entry i of the
// Workspace's indexed heap, keeping pos[v] equal to v's heap index for every
// entry they move. A plain binary heap over a slice: container/heap would
// box every satEntry through an interface.
func (ws *Workspace) satUp(i int) {
	h, pos := ws.heap, ws.pos
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !satLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		pos[h[i].v] = int32(i)
		i = p
	}
	h[i] = e
	pos[e.v] = int32(i)
}

func (ws *Workspace) satDown(i int) {
	h, pos := ws.heap, ws.pos
	e := h[i]
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && satLess(h[r], h[m]) {
			m = r
		}
		if !satLess(h[m], e) {
			break
		}
		h[i] = h[m]
		pos[h[i].v] = int32(i)
		i = m
	}
	h[i] = e
	pos[e.v] = int32(i)
}

// DSatur colors the conflict graph with the DSATUR heuristic (Brélaz 1979):
// repeatedly color the uncolored vertex with the highest saturation degree
// (number of distinct neighbor colors), breaking ties by degree then index,
// assigning the smallest color absent from its neighborhood. A stronger
// graph-coloring baseline than the length-order greedy. colors must have
// length g.N(); returns the color count.
//
// The uncolored vertices sit in an indexed binary heap, one entry each, with
// pos[v] locating v's entry: a saturation increase sifts that entry up in
// place, and the loop pops exactly n times, so the cost is O((V+E) log V)
// with no stale entries however dense the graph. Neighbor-color sets are
// flat per-vertex bitsets (stride ⌈(Δ+1)/64⌉ words) carved from one
// Workspace arena — no per-vertex maps.
func (ws *Workspace) DSatur(g *conflict.Graph, colors []int) int {
	n := g.N()
	for i := range colors {
		colors[i] = -1
	}
	maxDeg := g.MaxDegree()
	stride := (maxDeg + 1 + 63) / 64
	if stride == 0 {
		stride = 1
	}
	ws.satBits = grow(ws.satBits, n*stride)
	clear(ws.satBits)
	ws.usedBy = grow(ws.usedBy, n+1)
	for i := range ws.usedBy {
		ws.usedBy[i] = -1
	}
	ws.heap = grow(ws.heap, n)
	ws.pos = grow(ws.pos, n)
	rowPtr, nbr := g.RowPtr, g.Neighbors
	for v := 0; v < n; v++ {
		ws.heap[v] = satEntry{v: int32(v), deg: rowPtr[v+1] - rowPtr[v]}
		ws.pos[v] = int32(v)
	}
	for i := n/2 - 1; i >= 0; i-- {
		ws.satDown(i)
	}
	numColors := 0
	for len(ws.heap) > 0 {
		v32 := ws.heap[0].v
		v := int(v32)
		last := len(ws.heap) - 1
		ws.heap[0] = ws.heap[last]
		ws.heap = ws.heap[:last]
		if last > 0 {
			ws.satDown(0)
		}
		for _, w := range nbr[rowPtr[v]:rowPtr[v+1]] {
			if c := colors[w]; c >= 0 {
				ws.usedBy[c] = v32
			}
		}
		c := 0
		for ws.usedBy[c] == v32 {
			c++
		}
		colors[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
		for _, w := range nbr[rowPtr[v]:rowPtr[v+1]] {
			if colors[w] >= 0 {
				continue
			}
			word := &ws.satBits[int(w)*stride+c/64]
			if bit := uint64(1) << (c % 64); *word&bit == 0 {
				*word |= bit
				i := int(ws.pos[w])
				ws.heap[i].sat++
				ws.satUp(i)
			}
		}
	}
	return numColors
}

// splitmix64 is the vertex-priority hash of JP: a fixed, high-quality
// 64-bit mixer, so priorities are deterministic in (seed, vertex) with no
// RNG state to share between goroutines.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jpHigher reports whether vertex a outranks vertex b under the JP random
// priority, ties broken by index — a strict total order, so every edge has
// exactly one higher endpoint.
func jpHigher(prio []uint64, a, b int32) bool {
	if prio[a] != prio[b] {
		return prio[a] > prio[b]
	}
	return a > b
}

// JP colors the conflict graph with the Jones–Plassmann random-priority
// parallel coloring: each vertex waits until every uncolored neighbor of
// higher priority has been colored, then takes the smallest color absent
// from its neighborhood. Rounds run in parallel over internal/par; the
// result depends only on (graph, seed) — never on GOMAXPROCS or goroutine
// scheduling — because the wait counts evolve identically under any
// execution order. colors must have length g.N(); returns the color count.
//
// This is the shared-memory form of the distributed coloring the paper's
// line of work builds on: each round colors an independent set (the local
// priority maxima), and O(log n) rounds suffice with high probability.
func (ws *Workspace) JP(g *conflict.Graph, seed uint64, colors []int) int {
	n := g.N()
	for i := range colors {
		colors[i] = -1
	}
	ws.prio = grow(ws.prio, n)
	ws.wait = grow(ws.wait, n)
	ws.active = grow(ws.active, n)
	ws.winner = ws.winner[:0]
	prio, wait := ws.prio, ws.wait
	rowPtr, nbr := g.RowPtr, g.Neighbors
	// Two passes: every priority must exist before any wait count reads it.
	par.For(n, func(v int) {
		prio[v] = splitmix64(seed ^ uint64(v))
	})
	par.For(n, func(v int) {
		w := int32(0)
		for _, u := range nbr[rowPtr[v]:rowPtr[v+1]] {
			if jpHigher(prio, u, int32(v)) {
				w++
			}
		}
		wait[v] = w
		ws.active[v] = int32(v)
	})

	active := ws.active
	numColors := 0
	for len(active) > 0 {
		// Winners: active vertices whose higher-priority neighbors are all
		// colored. They form an independent set (of the uncolored subgraph),
		// so coloring them is race-free: no winner reads another winner's
		// color. Partition the frontier in place — winners to the front —
		// then color the winner prefix in parallel.
		ws.winner = ws.winner[:0]
		rest := active[:0]
		for _, v := range active {
			if wait[v] == 0 {
				ws.winner = append(ws.winner, v)
			} else {
				rest = append(rest, v)
			}
		}
		winners := ws.winner
		par.For(len(winners), func(k int) {
			v := winners[k]
			row := nbr[rowPtr[v]:rowPtr[v+1]]
			// Smallest color absent from the colored neighborhood, via a
			// 64-bit window sweep: count used colors per 64-block.
			c := 0
			for {
				var mask uint64
				for _, u := range row {
					if cu := colors[u]; cu >= c && cu < c+64 {
						mask |= uint64(1) << (cu - c)
					}
				}
				if mask != ^uint64(0) {
					c += bits.TrailingZeros64(^mask)
					break
				}
				c += 64
			}
			colors[v] = c
		})
		// Release the lower-priority uncolored neighbors of each winner.
		// Decrements are atomic: two winners may share an uncolored
		// neighbor. The resulting counts are scheduling-independent.
		par.For(len(winners), func(k int) {
			v := winners[k]
			for _, u := range nbr[rowPtr[v]:rowPtr[v+1]] {
				if colors[u] < 0 && jpHigher(prio, v, u) {
					atomic.AddInt32(&wait[u], -1)
				}
			}
		})
		for _, v := range winners {
			if c := colors[v] + 1; c > numColors {
				numColors = c
			}
		}
		active = rest
	}
	return numColors
}

// Verify checks that colors is a proper coloring of g: every vertex colored
// with a value in [0, numColors) and no edge monochromatic.
func Verify(g *conflict.Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		for _, w := range g.Row(v) {
			if colors[w] == c {
				return fmt.Errorf("coloring: edge (%d,%d) monochromatic with color %d", v, w, c)
			}
		}
	}
	return nil
}

// Refine implements the first-fit refinement from the proof of Theorem 2:
// iterate over the links in non-increasing order of length and assign each
// link i to the first set S with I(i, S) < 1, where
// I(i, S) = Σ_{j∈S} min{1, l_i^α/d(i,j)^α}. At insertion time every link
// already in S is at least as long as i, so the resulting sets satisfy
// I(i, S⁺ᵢ) < 1 for all their members — which makes each set independent in
// G₁ and, for MSTs, bounds the number of sets by a constant (Lemma 1).
//
// It returns the partition as index sets (in assignment order within each
// set). The number of sets is the empirical "t" of Theorem 2.
func Refine(links []geom.Link, p sinr.Params) [][]int {
	n := len(links)
	lens := geom.Lengths(links)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := lens[order[a]], lens[order[b]]
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	var sets [][]int
	// influence[k] is recomputed per candidate; sets stay small (O(1) sets
	// of O(n) links), so the pairwise evaluation is O(n²) overall.
	for _, i := range order {
		placed := false
		for k := range sets {
			if p.AddOpSum(lens[i], links[i], links, sets[k], 1) < 1 {
				sets[k] = append(sets[k], i)
				placed = true
				break
			}
		}
		if !placed {
			sets = append(sets, []int{i})
		}
	}
	return sets
}

// VerifyRefinement checks the Theorem-2 invariant on a refinement: for every
// set S and every link i ∈ S, I(i, S⁺ᵢ) < 1 where S⁺ᵢ is the subset of S
// with length ≥ l_i (excluding i itself).
func VerifyRefinement(links []geom.Link, sets [][]int, p sinr.Params) error {
	seen := make([]bool, len(links))
	lens := geom.Lengths(links)
	var longer []int
	for k, set := range sets {
		for _, i := range set {
			if seen[i] {
				return fmt.Errorf("coloring: link %d in multiple refinement sets", i)
			}
			seen[i] = true
			longer = longer[:0]
			for _, j := range set {
				if j == i || lens[j] < lens[i] {
					continue
				}
				longer = append(longer, j)
			}
			if infl := p.AddOpSum(lens[i], links[i], links, longer, math.Inf(1)); infl >= 1 {
				return fmt.Errorf("coloring: set %d link %d has I(i,S+)=%g >= 1", k, i, infl)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("coloring: link %d missing from refinement", i)
		}
	}
	return nil
}
