// Engine is the fast SINR verification kernel behind
// (*schedule.Schedule).VerifySINRDelta. The naive Margin does exact O(m²)
// pairwise interference per slot with a fresh math.Pow on every pair; the
// engine cuts the hot path to near-linear in three tiers while keeping
// every returned verdict and margin exact:
//
//  1. Far-field pyramid. Each slot's senders are bucketed into a dyadic
//     grid pyramid (the same dyadic machinery style as the internal/conflict
//     build: a power-of-two base grid plus coarser levels merging 2×2
//     children). For a receiver, any pyramid node whose sender bounding box
//     is far relative to its size — max/min squared distance within a factor
//     θ² — contributes its total power mass over [maxdist, mindist], giving
//     a certified interval for the interference and hence for the link's
//     SINR margin. Nearby nodes are opened; base cells are summed exactly.
//     The first pass runs every link at a deliberately coarse θ and is
//     frontier-shared: one level-ordered walk of the pyramid for the whole
//     slot classifies nodes against each sender cell's receiver bounding
//     box, so a far node certifies its interval for all of the cell's
//     receivers at once. The cell and its eight neighbours are then summed
//     exactly in one contiguous run per receiver, and each receiver
//     re-tests the outer near cells against its own point, aggregating
//     those that are far for it, so its near field stays a few cells wide.
//
//  2. Adaptive cell refinement. The slot's worst margin is the minimum over
//     links, so only links whose margin interval reaches below the smallest
//     interval upper bound U can attain it. Instead of falling straight to
//     exact pairwise for those, the engine re-descends just the straddling
//     links with progressively tighter θ from engineThetaLadder — splitting
//     the cells that were aggregated before — until the candidate set stops
//     shrinking or a tighter pass would cost more than the exact row.
//     Intervals at every rung are certified, so mixing rungs is sound.
//
//  3. SoA exact kernels. Slots of at most engineExactCutoff links skip the
//     grid and take the exact pairwise evaluation of every link directly.
//     Links still straddling after the ladder are resolved by the exact
//     pairwise sum, in slot order like the naive path. Both this fallback
//     and the near-field cell sums run on flat structure-of-arrays float64
//     loops (separate x/y/power slices, cell-ordered copies, no per-link
//     struct loads) specialized per α ∈ {2, 3, 4} with a math.Pow generic
//     fallback. Every interval is
//     padded by a relative 1e-9 so floating-point slop between the interval
//     and exact arithmetic can never eject the true argmin from the
//     candidate set — the returned margin is always an exactly-computed one.
//
// The grid pyramid of a slot lives in a SlotGrid, which MarginSlotGrid
// always hands back to the caller: verification caches keep built grids
// keyed by slot membership so escalation retries, delta re-verifies and
// warm re-runs skip buildGrid, and a caller without a cache simply drops
// it. A returned grid is immutable; reuse is guarded by an order hash (grid
// layout is slot-order dependent) and a power hash (masses are power sums —
// a membership match with different powers is refreshed into a new grid,
// never mutated in place).
//
// Determinism: MarginSlotGrid's margin is a pure function of (params,
// links, slot, powers); scratch, stats and an offered grid only carry
// reusable buffers, counters and structure.
// Grid reuse returns bit-identical margins: the interval tiers may be
// freely rescheduled (they only select candidates, and certification plus
// padding keeps the true argmin in the set), while the exact rows that
// produce the returned margin always accumulate in naive slot order.
package sinr

import (
	"fmt"
	"math"

	"aggrate/internal/geom"
)

// intervalPad is the relative padding applied to the certified margin
// intervals before candidate selection. It dominates the accumulated
// floating-point discrepancy between the interval arithmetic and the exact
// pairwise sum (≈ m·2⁻⁵² ≲ 1e-10 even for million-link slots), so interval
// containment — and with it the exactness of the returned margin — survives
// rounding, including the few extra ulps of the reciprocal-multiply
// near-field kernels.
const intervalPad = 1e-9

// engineExactCutoff is the slot size at or below which the grid is not worth
// building and the engine runs the exact pairwise evaluation directly (still
// on the cached-gain SoA kernels, so small slots skip per-pair math.Pow too).
// It sits at the measured crossover: BenchmarkMarginSlotBySize has the exact
// tier ahead at 128 links and the grid tier from 256 on (2× at 512). On EMST
// slots the grid wins from 128, but a cutoff of 128 saved only ~5% of
// sweep-50k's verify time for 28% more verify allocation (retained grids).
const engineExactCutoff = 256

// exactTile is the row/column tile size of the symmetric exact-all kernel:
// small enough that two tiles of sender/receiver coordinates and the
// partner-row accumulators stay L1-resident, large enough to amortize the
// tile loop overhead.
const exactTile = 128

// engineThetaLadder2 holds the squared opening thresholds θ² of the adaptive
// descent, coarsest first. A pyramid node is aggregated when
// maxdist² ≤ θ²·mindist², i.e. its power mass is localized within a factor θ
// of its distance, bounding the per-node interval ratio by θ^α. The first
// rung is the frontier-shared pass over every link: θ=2 keeps the near field
// to a handful of cells. Later rungs re-descend only candidate links —
// straddlers of the slot minimum — trading a (θ−1)⁻² blowup of the near
// field for interval ratios that approach 1 and evict almost all candidates
// before the exact fallback.
var engineThetaLadder2 = [...]float64{
	2.0 * 2.0,
	1.5 * 1.5,
	1.25 * 1.25,
	1.12 * 1.12,
	1.06 * 1.06,
	1.03 * 1.03,
}

// engineRefineMin is the candidate-set size at or below which refinement
// stops and the engine resolves the stragglers exactly — a few exact rows
// are cheaper than another descent pass.
const engineRefineMin = 4

// engineMaxGridDim caps the base-grid resolution (memory is O(dim²)).
const engineMaxGridDim = 1024

// engineCellOcc is the base grid's senders per cell for every slot size.
// The shared first pass walks per cell while each receiver sums a few cells
// exactly; on EMST slots 16 beat 8 by 1.3–2.2× per link at 128–8191 links,
// beat 24–48 at 10⁴–5·10⁴ links, and tied 24–32 below that.
const engineCellOcc = 16

// FNV-1a over 64-bit words, used for the SlotGrid reuse guards.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Engine caches per-link gains for repeated slot verification over a fixed
// link set. Create one per schedule with NewEngine; MarginSlotGrid is then
// safe for concurrent use as long as each goroutine owns its EngineScratch
// and EngineStats.
type Engine struct {
	p         Params
	alphaHalf float64
	powMode   int
	links     []geom.Link
	// lenA[i] = l_i^α, the received-signal denominator of link i.
	lenA []float64
}

// pow-mode fast paths for (d²)^(α/2).
const (
	powGeneric = iota
	powAlpha3
	powAlpha4
)

// NewEngine precomputes the per-link gain cache for the link set. The links
// slice is retained (not copied); callers must not mutate it while the
// engine is in use.
func NewEngine(p Params, links []geom.Link) *Engine {
	e := &Engine{p: p, alphaHalf: p.Alpha / 2, powMode: powGeneric, links: links}
	switch p.Alpha {
	case 3:
		e.powMode = powAlpha3
	case 4:
		e.powMode = powAlpha4
	}
	e.lenA = make([]float64, len(links))
	for i, l := range links {
		e.lenA[i] = e.powD2(l.S.Dist2(l.R))
	}
	return e
}

// powD2 returns (d2)^(α/2) = d^α for the squared distance d2. Only the
// default α=3 path is kept small enough to inline into the descent's
// far-node bounds (math.Sqrt compiles to a single instruction); α=4 and the
// generic fractional exponent pay an out-of-line call via powD2Slow.
// The pairwise sums never come through here — they use the per-α rowSum
// kernels below.
func (e *Engine) powD2(d2 float64) float64 {
	if e.powMode == powAlpha3 {
		return d2 * math.Sqrt(d2)
	}
	return e.powD2Slow(d2)
}

// powD2Slow carries the non-default exponents out of line, keeping powD2
// itself under the inlining budget.
//
//go:noinline
func (e *Engine) powD2Slow(d2 float64) float64 {
	if e.powMode == powAlpha4 {
		return d2 * d2
	}
	return math.Pow(d2, e.alphaHalf)
}

// farBounds returns the certified interference interval [mass/a, mass/b] of
// a far node with a = maxd^α and b = mind^α. One divide serves both bounds:
// 1/(a·b) is recovered into 1/a and 1/b by multiplication. A few ulps of
// slop land in the certified interval, where intervalPad absorbs them; a
// degenerate product falls back to the two divides.
func farBounds(mass, a, b float64) (lo, hi float64) {
	if inv := 1 / (a * b); inv > 0 && !math.IsInf(inv, 1) {
		return mass * b * inv, mass * a * inv
	}
	return mass / a, mass / b
}

// rowSum accumulates Σ_j pw[j]/dist(p_j, q)^α into acc over the flat sender
// arrays, dispatching to the α-specialized SoA kernels. The kernels add
// terms in slice order, so callers control summation order exactly (the
// naive-parity contract). This is the order-pinned path: the exact rows
// that produce returned margins always come through here.
func (e *Engine) rowSum(acc float64, px, py, pw []float64, qx, qy float64) float64 {
	switch e.powMode {
	case powAlpha3:
		return rowSumA3(acc, px, py, pw, qx, qy)
	case powAlpha4:
		return rowSumA4(acc, px, py, pw, qx, qy)
	}
	return e.rowSumGeneric(acc, px, py, pw, qx, qy)
}

// rowSumA3 is the α=3 kernel: d³ = d²·√d². The py/pw reslices pin their
// lengths to len(px) so the compiler drops the per-iteration bounds checks
// and keeps the accumulator in a register.
func rowSumA3(acc float64, px, py, pw []float64, qx, qy float64) float64 {
	py = py[:len(px)]
	pw = pw[:len(px)]
	for j := range px {
		dx := px[j] - qx
		dy := py[j] - qy
		d2 := dx*dx + dy*dy
		acc += pw[j] / (d2 * math.Sqrt(d2))
	}
	return acc
}

// rowSumA4 is the α=4 kernel: d⁴ = (d²)².
func rowSumA4(acc float64, px, py, pw []float64, qx, qy float64) float64 {
	py = py[:len(px)]
	pw = pw[:len(px)]
	for j := range px {
		dx := px[j] - qx
		dy := py[j] - qy
		d2 := dx*dx + dy*dy
		acc += pw[j] / (d2 * d2)
	}
	return acc
}

// rowSumGeneric handles fractional exponents via math.Pow.
func (e *Engine) rowSumGeneric(acc float64, px, py, pw []float64, qx, qy float64) float64 {
	py = py[:len(px)]
	pw = pw[:len(px)]
	for j := range px {
		dx := px[j] - qx
		dy := py[j] - qy
		acc += pw[j] / math.Pow(dx*dx+dy*dy, e.alphaHalf)
	}
	return acc
}

// rowSumFast is the certified-interval counterpart of rowSum: the near-field
// cell sums of the descent come through here. These kernels batch four gains
// into one reciprocal (1/(g0·g1·g2·g3), terms recovered by multiplication),
// trading the four serial divides — the loop-carried latency wall of the
// plain kernels — for one divide plus a handful of pipelined multiplies.
// The result differs from left-to-right division by a few ulps, which only
// perturbs the certified interval endpoints and is absorbed by intervalPad;
// returned margins are unaffected (they come from the order-pinned rowSum).
// A degenerate product (underflow to 0, overflow to Inf, NaN from a zero
// distance) falls back to per-element division for the block, so co-located
// senders still poison the interval to +Inf exactly like the plain kernel.
func (e *Engine) rowSumFast(acc float64, px, py, pw []float64, qx, qy float64) float64 {
	switch e.powMode {
	case powAlpha3:
		return rowSumFastA3(acc, px, py, pw, qx, qy)
	case powAlpha4:
		return rowSumFastA4(acc, px, py, pw, qx, qy)
	}
	return e.rowSumGeneric(acc, px, py, pw, qx, qy)
}

// rowSumFastA3 is the batched α=3 interval kernel.
func rowSumFastA3(acc float64, px, py, pw []float64, qx, qy float64) float64 {
	n := len(px)
	py = py[:n]
	pw = pw[:n]
	var acc2 float64
	j := 0
	for ; j+4 <= n; j += 4 {
		dx0 := px[j] - qx
		dy0 := py[j] - qy
		d20 := dx0*dx0 + dy0*dy0
		g0 := d20 * math.Sqrt(d20)
		dx1 := px[j+1] - qx
		dy1 := py[j+1] - qy
		d21 := dx1*dx1 + dy1*dy1
		g1 := d21 * math.Sqrt(d21)
		dx2 := px[j+2] - qx
		dy2 := py[j+2] - qy
		d22 := dx2*dx2 + dy2*dy2
		g2 := d22 * math.Sqrt(d22)
		dx3 := px[j+3] - qx
		dy3 := py[j+3] - qy
		d23 := dx3*dx3 + dy3*dy3
		g3 := d23 * math.Sqrt(d23)
		g01 := g0 * g1
		g23 := g2 * g3
		if inv := 1 / (g01 * g23); inv > 0 && !math.IsInf(inv, 1) {
			acc += (pw[j]*g1 + pw[j+1]*g0) * g23 * inv
			acc2 += (pw[j+2]*g3 + pw[j+3]*g2) * g01 * inv
		} else {
			acc += pw[j]/g0 + pw[j+1]/g1
			acc2 += pw[j+2]/g2 + pw[j+3]/g3
		}
	}
	for ; j < n; j++ {
		dx := px[j] - qx
		dy := py[j] - qy
		d2 := dx*dx + dy*dy
		acc += pw[j] / (d2 * math.Sqrt(d2))
	}
	return acc + acc2
}

// rowSumFastA4 is the batched α=4 interval kernel.
func rowSumFastA4(acc float64, px, py, pw []float64, qx, qy float64) float64 {
	n := len(px)
	py = py[:n]
	pw = pw[:n]
	var acc2 float64
	j := 0
	for ; j+4 <= n; j += 4 {
		dx0 := px[j] - qx
		dy0 := py[j] - qy
		d20 := dx0*dx0 + dy0*dy0
		g0 := d20 * d20
		dx1 := px[j+1] - qx
		dy1 := py[j+1] - qy
		d21 := dx1*dx1 + dy1*dy1
		g1 := d21 * d21
		dx2 := px[j+2] - qx
		dy2 := py[j+2] - qy
		d22 := dx2*dx2 + dy2*dy2
		g2 := d22 * d22
		dx3 := px[j+3] - qx
		dy3 := py[j+3] - qy
		d23 := dx3*dx3 + dy3*dy3
		g3 := d23 * d23
		g01 := g0 * g1
		g23 := g2 * g3
		if inv := 1 / (g01 * g23); inv > 0 && !math.IsInf(inv, 1) {
			acc += (pw[j]*g1 + pw[j+1]*g0) * g23 * inv
			acc2 += (pw[j+2]*g3 + pw[j+3]*g2) * g01 * inv
		} else {
			acc += pw[j]/g0 + pw[j+1]/g1
			acc2 += pw[j+2]/g2 + pw[j+3]/g3
		}
	}
	for ; j < n; j++ {
		dx := px[j] - qx
		dy := py[j] - qy
		d2 := dx*dx + dy*dy
		acc += pw[j] / (d2 * d2)
	}
	return acc + acc2
}

// EngineStats counts the work the engine performed, for diagnostics and the
// bench artifact. All fields are exact sums over the verified slots and are
// deterministic in the input regardless of slot-level parallelism.
//
// The pair counters use per-link distinct-pair semantics: each link
// contributes the pairwise terms of the single evaluation that produced its
// final margin or interval — m−1 ExactPairs if it fell to the exact row,
// otherwise the near-field pairs of its last (tightest) descent. Work from
// superseded coarser descents is not counted, so
// ExactPairs+NearPairs ≤ NaivePairs and ExactPairsFrac ≤ 1 hold structurally,
// including when stats are accumulated across γ-escalation retries with Add
// (both numerator and denominator grow together, keeping the ratio a
// weighted mean of per-pass ratios).
type EngineStats struct {
	// Links counts link-slot SINR evaluations.
	Links int64
	// ExactLinks counts links resolved by the exact pairwise fallback
	// (including every link of slots at or below the small-slot cutoff).
	ExactLinks int64
	// ExactPairs counts pairwise interference terms evaluated by the
	// fallback: m−1 per exact link.
	ExactPairs int64
	// NearPairs counts pairwise terms evaluated exactly in the near field
	// of the final descent of links that did not fall to the exact row.
	NearPairs int64
	// FarNodes counts pyramid nodes accepted by the far-field bound across
	// all passes — per sender cell in the shared walk, per receiver in its
	// near-cell screen (a work counter, not a pair fraction).
	FarNodes int64
	// RefinedLinks counts refined link descents: one per link per
	// tighter-θ ladder rung it was re-descended at.
	RefinedLinks int64
	// RefinedCells counts base cells opened (summed exactly) during
	// refined descents.
	RefinedCells int64
	// NaivePairs counts the pairwise terms the naive path would have
	// evaluated: Σ_slots m·(m−1).
	NaivePairs int64
}

// Add accumulates o into st. This is the γ-retry accumulation path: Timings
// report stats summed over every verification pass of an instance, and the
// ExactPairsFrac ≤ 1 invariant is preserved because numerator and
// denominator fields accumulate together.
func (st *EngineStats) Add(o EngineStats) {
	st.Links += o.Links
	st.ExactLinks += o.ExactLinks
	st.ExactPairs += o.ExactPairs
	st.NearPairs += o.NearPairs
	st.FarNodes += o.FarNodes
	st.RefinedLinks += o.RefinedLinks
	st.RefinedCells += o.RefinedCells
	st.NaivePairs += o.NaivePairs
}

// ExactPairsFrac returns the fraction of the naive pairwise work the engine
// performed for the evaluations that produced final margins
// ((near + fallback pairs) / naive pairs), the headline "how much O(m²)
// survived" diagnostic. Always in [0, 1]; zero when no pairs were required.
func (st EngineStats) ExactPairsFrac() float64 {
	if st.NaivePairs == 0 {
		return 0
	}
	return float64(st.ExactPairs+st.NearPairs) / float64(st.NaivePairs)
}

// engineNode is one pyramid node: the total transmit power mass of the
// senders it covers and their exact bounding box. A zero mass marks an
// empty node.
type engineNode struct {
	mass                   float64
	minX, minY, maxX, maxY float64
}

// SlotGrid is the built spatial structure of one slot: the base-grid cell
// tables, the cell-ordered SoA sender copies the near-field sums stream
// over, and the bounding-box pyramid the descent walks. Building one is the
// per-slot setup cost of MarginSlotGrid; retaining the one it returns lets
// verification caches skip that build when the same slot membership comes
// back — across γ-escalation retries, delta re-verifies and warm re-runs.
//
// A returned grid is immutable and safe for concurrent readers. Layout is
// slot-order dependent (cellOf/posOf use slot-local indices), so reuse is
// guarded by orderHash; masses are power sums, so a membership match with
// different powers is refreshed into a fresh grid via refreshFrom, never
// patched in place.
type SlotGrid struct {
	cellOf  []int32 // base-grid cell of each member's sender
	posOf   []int32 // position of each member in the cell-ordered arrays
	starts  []int32 // CSR cell offsets into members
	members []int32 // member indices grouped by base cell
	// Cell-ordered copies of (px, py, pw), indexed like members, so the
	// near-field sums of the interval descent scan contiguous memory.
	cpx, cpy, cpw []float64

	nodes    []engineNode // pyramid, level-major from the base grid up
	levelOff []int        // node offset of each pyramid level
	// childMask holds, for every non-base node, the 4-bit occupancy mask of
	// its children (bit dy·2+dx). Opening a node consults one byte instead
	// of probing four scattered 40-byte child structs. Indexed like nodes;
	// base-level entries are unused.
	childMask []uint8

	d0       int     // base-grid dimension (power of two)
	nonEmpty int     // non-empty base cells
	invCS    float64 // 1 / cell size
	gridOX   float64 // grid origin (sender bbox min corner)
	gridOY   float64

	// Reuse guards: FNV-1a over the slot's global link indices in slot
	// order, and over the power bits in slot order.
	orderHash uint64
	powHash   uint64
}

// m returns the slot size the grid was built for.
func (g *SlotGrid) m() int { return len(g.cellOf) }

// SizeBytes reports the grid's retained memory, for cache byte budgets.
func (g *SlotGrid) SizeBytes() int64 {
	b := int64(cap(g.cellOf)+cap(g.posOf)+cap(g.starts)+cap(g.members)) * 4
	b += int64(cap(g.cpx)+cap(g.cpy)+cap(g.cpw)) * 8
	b += int64(cap(g.nodes)) * 40 // 5 float64 fields
	b += int64(cap(g.childMask))
	b += int64(cap(g.levelOff)) * 8
	return b + 96 // struct header
}

// refreshFrom rebuilds g as src with new powers: the power-independent
// structure (cell tables, membership, base bounding boxes, layout scalars)
// is copied, the cell-ordered power copies and the base masses are
// recomputed in slot order, and the upper levels are rebuilt by buildGrid's
// own pyramid pass, so a refreshed grid is a fresh build bit for bit. src
// is never written (retained grids stay immutable under concurrent
// readers).
func (g *SlotGrid) refreshFrom(src *SlotGrid, pw []float64, powHash uint64) {
	g.cellOf = append(g.cellOf[:0], src.cellOf...)
	g.posOf = append(g.posOf[:0], src.posOf...)
	g.starts = append(g.starts[:0], src.starts...)
	g.members = append(g.members[:0], src.members...)
	g.cpx = append(g.cpx[:0], src.cpx...)
	g.cpy = append(g.cpy[:0], src.cpy...)
	if cap(g.cpw) < len(src.cpw) {
		g.cpw = make([]float64, len(src.cpw))
	}
	g.cpw = g.cpw[:len(src.cpw)]
	g.levelOff = append(g.levelOff[:0], src.levelOff...)
	g.d0, g.nonEmpty = src.d0, src.nonEmpty
	g.invCS, g.gridOX, g.gridOY = src.invCS, src.gridOX, src.gridOY
	g.orderHash, g.powHash = src.orderHash, powHash

	base := g.d0 * g.d0
	g.nodes = append(g.nodes[:0], src.nodes...)
	clear(g.nodes[base:])
	for i := range g.nodes[:base] {
		g.nodes[i].mass = 0
	}
	for k, p := range pw {
		g.nodes[g.cellOf[k]].mass += p
		g.cpw[g.posOf[k]] = p
	}
	g.buildPyramid()
}

// EngineScratch holds the reusable per-goroutine buffers of MarginSlotGrid,
// so steady-state verification allocates nothing per slot beyond the grid
// it hands back.
type EngineScratch struct {
	// Gathered per-slot-member data (slot-local indexing).
	px, py []float64 // sender coordinates
	qx, qy []float64 // receiver coordinates
	pw     []float64 // transmit powers
	sig    []float64 // received signals P/l^α
	lb, ub []float64 // certified margin interval per member

	fill []int32 // CSR fill cursors (grid build, near-pair counting sort)

	near []int32 // near pairs of each member's latest descent
	cand []int32 // current candidate members (ascending)

	stack []nodeRef // descent stack

	// Frontier-shared first-pass buffers: per-cell receiver bounding boxes,
	// double-buffered node groups and the shared still-open cell pool they
	// span, per-cell far-field interval accumulators and cell coordinates,
	// and the (cell, base-cell) near pairs with their counting-sort layout.
	rminx, rmaxx   []float64
	rminy, rmaxy   []float64
	fgCur, fgNext  []frontierGroup
	flCur, flNext  []int32
	cellLo, cellHi []float64
	ccx, ccy       []int32
	npCell, npBase []int32
	nearStart      []int32
	nearOrd        []int32
	fpx, fpy, fpw  []float64 // flattened senders of a home cell's 3×3 block
	outer          []int32   // the home cell's other near cells
}

type nodeRef struct{ level, x, y int32 }

// frontierGroup is one pyramid node of the level-ordered shared descent,
// with the span of still-open cells it must test in the level's shared
// cell pool. The four children of an opened node inherit one common span,
// so spans stay contiguous and the pool is append-only per level.
type frontierGroup struct {
	nx, ny int32 // node coordinates at the wave's level
	lo, hi int32 // open-cell span in the level's cell pool
}

// NewEngineScratch returns an empty scratch; buffers grow on demand and are
// reused across MarginSlotGrid calls.
func NewEngineScratch() *EngineScratch { return &EngineScratch{} }

// reserve sizes the per-member buffers for a slot of m links.
func (sc *EngineScratch) reserve(m int) {
	if cap(sc.px) < m {
		sc.px = make([]float64, m)
		sc.py = make([]float64, m)
		sc.qx = make([]float64, m)
		sc.qy = make([]float64, m)
		sc.pw = make([]float64, m)
		sc.sig = make([]float64, m)
		sc.lb = make([]float64, m)
		sc.ub = make([]float64, m)
		sc.near = make([]int32, m)
		sc.cand = make([]int32, m)
	}
	sc.px, sc.py = sc.px[:m], sc.py[:m]
	sc.qx, sc.qy = sc.qx[:m], sc.qy[:m]
	sc.pw, sc.sig = sc.pw[:m], sc.sig[:m]
	sc.lb, sc.ub = sc.lb[:m], sc.ub[:m]
	sc.near = sc.near[:m]
	sc.cand = sc.cand[:0]
}

// refineCost estimates the near-field pairs of one descent at opening
// threshold θ: the base cells within the non-aggregable radius
// (≈ (θ+1)/(θ−1) half-diagonals) times the mean occupancy of non-empty
// cells. Used to stop the ladder when a tighter pass would cost more than
// the exact row it is trying to avoid.
func (g *SlotGrid) refineCost(theta2 float64, m int) float64 {
	theta := math.Sqrt(theta2)
	r := 0.71*(theta+1)/(theta-1) + 1 // cell radius of the near field
	cells := math.Pi * r * r
	occ := float64(m) / float64(max(g.nonEmpty, 1))
	return cells * occ
}

// slotHashes returns the SlotGrid reuse guards: FNV-1a over the global link
// indices in slot order, and over the power bits in slot order.
func slotHashes(idx []int, power []float64) (orderHash, powHash uint64) {
	oh, ph := uint64(fnvOffset64), uint64(fnvOffset64)
	for k, gi := range idx {
		oh = (oh ^ uint64(gi)) * fnvPrime64
		ph = (ph ^ math.Float64bits(power[k])) * fnvPrime64
	}
	return oh, ph
}

// MarginSlotGrid returns the exact worst-case SINR margin (min over the
// slot's links of SINR_i/β) of one slot, given global link indices and
// their transmit powers (power[k] belongs to idx[k]). It matches
// Params.Margin on the corresponding link/power slices up to floating-point
// accumulation order (≲1e-12 relative), with identical error conditions.
// st accumulates work counters; both sc and st are caller-owned.
//
// g, when non-nil, is a grid previously returned by this method on the same
// Engine; if its membership order matches the slot it is reused — directly
// when the powers also match, via refreshFrom into a fresh grid otherwise —
// skipping buildGrid. The grid used for this evaluation is returned (nil
// for slots small enough to take the exact tier): it is heap-owned,
// immutable from then on, and safe to share across goroutines. reused
// reports that buildGrid was skipped thanks to g. Margins are bit-identical
// across every combination of reuse, refresh and cold build.
func (e *Engine) MarginSlotGrid(idx []int, power []float64, sc *EngineScratch, st *EngineStats, g *SlotGrid) (margin float64, grid *SlotGrid, reused bool, err error) {
	m := len(idx)
	if m != len(power) {
		return 0, nil, false, fmt.Errorf("sinr: %d links but %d powers", m, len(power))
	}
	if m == 0 {
		return math.Inf(1), nil, false, nil
	}
	if err := e.gather(sc, idx, power); err != nil {
		return 0, nil, false, err
	}
	st.Links += int64(m)
	st.NaivePairs += int64(m) * int64(m-1)
	if m <= engineExactCutoff {
		return e.exactAll(sc, m, st), nil, false, nil
	}

	// Resolve the slot structure: reuse the offered grid when the guards
	// match, refresh it into a fresh grid when only the powers differ, and
	// build one otherwise.
	if g != nil && g.m() == m {
		oh, ph := slotHashes(idx, power)
		if g.orderHash == oh {
			grid, reused = g, true
			if g.powHash != ph {
				grid = &SlotGrid{}
				grid.refreshFrom(g, sc.pw, ph)
			}
		}
	}
	if grid == nil {
		grid = &SlotGrid{}
		if !e.buildGrid(sc, grid, m) {
			return e.exactAll(sc, m, st), nil, false, nil
		}
		grid.orderHash, grid.powHash = slotHashes(idx, power)
	}
	return e.marginGrid(sc, grid, m, st), grid, reused, nil
}

// gather validates the slot's powers and link indices and loads its members
// into the scratch arrays in slot order: sender and receiver coordinates,
// powers and received signals.
func (e *Engine) gather(sc *EngineScratch, idx []int, power []float64) error {
	sc.reserve(len(idx))
	for k, gi := range idx {
		if power[k] <= 0 {
			return fmt.Errorf("sinr: non-positive power %g on link %d", power[k], k)
		}
		if gi < 0 || gi >= len(e.links) {
			return fmt.Errorf("sinr: link index %d outside the engine's %d links", gi, len(e.links))
		}
		l := e.links[gi]
		sc.px[k], sc.py[k] = l.S.X, l.S.Y
		sc.qx[k], sc.qy[k] = l.R.X, l.R.Y
		sc.pw[k] = power[k]
		sc.sig[k] = power[k] / e.lenA[gi]
	}
	return nil
}

// marginGrid runs tiers 1–3 on the slot's built grid and returns the exact
// slot margin.
func (e *Engine) marginGrid(sc *EngineScratch, g *SlotGrid, m int, st *EngineStats) float64 {
	// Tier 1 — coarse interval pass: a certified [lb, ub] margin interval
	// per link at the widest θ, from one frontier-shared pyramid walk. Only
	// links whose interval reaches below the smallest upper bound can attain
	// the slot minimum.
	e.descendShared(sc, g, engineThetaLadder2[0], st)
	cand := e.candidates(sc, m)

	// Tier 2 — adaptive refinement: re-descend just the straddlers with
	// tighter θ until the set is tiny or a pass would out-cost exact rows.
	for rung := 1; rung < len(engineThetaLadder2) && len(cand) > engineRefineMin; rung++ {
		th2 := engineThetaLadder2[rung]
		if g.refineCost(th2, m) >= float64(m-1)/2 {
			break
		}
		for _, k := range cand {
			e.descend(sc, g, int(k), th2, st)
		}
		st.RefinedLinks += int64(len(cand))
		next := e.candidates(sc, m)
		if len(next) >= len(cand) {
			// No progress: the remaining straddlers are genuinely close to
			// the minimum; tighter rungs only add cost.
			cand = next
			break
		}
		cand = next
	}
	if len(cand) == 0 {
		// Defensive: interval arithmetic met a non-finite input the grid
		// guards missed. The exact path is always well defined, and it
		// supersedes every descent, so none of their near pairs count.
		return e.exactAll(sc, m, st)
	}

	// Tier 3 — exact fallback for the remaining candidates, in slot order
	// like the naive path.
	worst := math.Inf(1)
	for _, k := range cand {
		st.ExactLinks++
		st.ExactPairs += int64(m - 1)
		sc.near[k] = -1 // superseded by the exact row
		if mg := e.exactOne(sc, m, int(k)); mg < worst {
			worst = mg
		}
	}
	for k := 0; k < m; k++ {
		if sc.near[k] >= 0 {
			st.NearPairs += int64(sc.near[k])
		}
	}
	return worst
}

// candidates rebuilds the straddler set: members whose margin lower bound
// does not exceed the smallest certified upper bound. The set is in
// ascending member order, so the exact fallback preserves naive slot order.
func (e *Engine) candidates(sc *EngineScratch, m int) []int32 {
	u := math.Inf(1)
	for k := 0; k < m; k++ {
		if sc.ub[k] < u {
			u = sc.ub[k]
		}
	}
	cand := sc.cand[:0]
	for k := 0; k < m; k++ {
		if sc.lb[k] <= u {
			cand = append(cand, int32(k))
		}
	}
	sc.cand = cand
	return cand
}

// exactOne computes the exact margin of slot member k by the full pairwise
// sum. The two range splits around k reproduce the naive path's j-order
// accumulation (j < k, then j > k) term for term.
func (e *Engine) exactOne(sc *EngineScratch, m, k int) float64 {
	intf := e.p.Noise
	qxk, qyk := sc.qx[k], sc.qy[k]
	intf = e.rowSum(intf, sc.px[:k], sc.py[:k], sc.pw[:k], qxk, qyk)
	intf = e.rowSum(intf, sc.px[k+1:m], sc.py[k+1:m], sc.pw[k+1:m], qxk, qyk)
	if intf == 0 {
		return math.Inf(1)
	}
	return sc.sig[k] / (e.p.Beta * intf)
}

// pairRow is one row segment of the symmetric exact-all kernel: it adds to
// accJ the interference row j receives from partners [t0, t0+len(accT)),
// and scatters into accT the term each partner's receiver gets from row j's
// sender — the unordered pair (j, t) is enumerated once, with both directed
// distances computed (the model is asymmetric: d(S_j,R_t) ≠ d(S_t,R_j)).
// The two directions form independent dependency chains, so their divides
// pipeline where the one-row-at-a-time loop stalls. Term expressions and
// per-row accumulation order match the naive row sums exactly (the tiling
// in exactAll delivers every row its partners in ascending index order), so
// the symmetric path is bit-identical to per-row evaluation.
func (e *Engine) pairRow(accJ float64, accT []float64, sc *EngineScratch, j, t0 int) float64 {
	switch e.powMode {
	case powAlpha3:
		return pairRowA3(accJ, accT, sc.px, sc.py, sc.qx, sc.qy, sc.pw, j, t0)
	case powAlpha4:
		return pairRowA4(accJ, accT, sc.px, sc.py, sc.qx, sc.qy, sc.pw, j, t0)
	}
	return pairRowGeneric(accJ, accT, sc.px, sc.py, sc.qx, sc.qy, sc.pw, j, t0, e.alphaHalf)
}

// pairRowA3 is the α=3 symmetric kernel.
func pairRowA3(accJ float64, accT []float64, px, py, qx, qy, pw []float64, j, t0 int) float64 {
	sxj, syj := px[j], py[j]
	rxj, ryj := qx[j], qy[j]
	pwj := pw[j]
	for i := range accT {
		t := t0 + i
		dx := px[t] - rxj
		dy := py[t] - ryj
		d2 := dx*dx + dy*dy
		accJ += pw[t] / (d2 * math.Sqrt(d2))
		ex := sxj - qx[t]
		ey := syj - qy[t]
		e2 := ex*ex + ey*ey
		accT[i] += pwj / (e2 * math.Sqrt(e2))
	}
	return accJ
}

// pairRowA4 is the α=4 symmetric kernel.
func pairRowA4(accJ float64, accT []float64, px, py, qx, qy, pw []float64, j, t0 int) float64 {
	sxj, syj := px[j], py[j]
	rxj, ryj := qx[j], qy[j]
	pwj := pw[j]
	for i := range accT {
		t := t0 + i
		dx := px[t] - rxj
		dy := py[t] - ryj
		d2 := dx*dx + dy*dy
		accJ += pw[t] / (d2 * d2)
		ex := sxj - qx[t]
		ey := syj - qy[t]
		e2 := ex*ex + ey*ey
		accT[i] += pwj / (e2 * e2)
	}
	return accJ
}

// pairRowGeneric is the fractional-exponent symmetric kernel.
func pairRowGeneric(accJ float64, accT []float64, px, py, qx, qy, pw []float64, j, t0 int, alphaHalf float64) float64 {
	sxj, syj := px[j], py[j]
	rxj, ryj := qx[j], qy[j]
	pwj := pw[j]
	for i := range accT {
		t := t0 + i
		dx := px[t] - rxj
		dy := py[t] - ryj
		accJ += pw[t] / math.Pow(dx*dx+dy*dy, alphaHalf)
		ex := sxj - qx[t]
		ey := syj - qy[t]
		accT[i] += pwj / math.Pow(ex*ex+ey*ey, alphaHalf)
	}
	return accJ
}

// exactAll is the small-slot/degenerate path: exact margins for every link,
// via the symmetric tiled kernel — each unordered pair is enumerated once
// per tile pair, with the forward term accumulated into the active row and
// the reverse term scattered into the partner row's accumulator. The
// triangular tile order (diagonal tile first, then the column above it,
// ascending) delivers every row its partner terms in ascending index order,
// which makes the accumulation — and therefore the returned margin — bit
// for bit the same as the per-row naive order exactOne reproduces.
func (e *Engine) exactAll(sc *EngineScratch, m int, st *EngineStats) float64 {
	st.ExactLinks += int64(m)
	st.ExactPairs += int64(m) * int64(m-1)
	acc := sc.lb[:m] // lb doubles as the interference accumulator here
	for k := range acc {
		acc[k] = e.p.Noise
	}
	for jt := 0; jt < m; jt += exactTile {
		jEnd := min(jt+exactTile, m)
		for j := jt; j < jEnd; j++ {
			acc[j] = e.pairRow(acc[j], acc[j+1:jEnd], sc, j, j+1)
		}
		for kt := jEnd; kt < m; kt += exactTile {
			kEnd := min(kt+exactTile, m)
			for j := jt; j < jEnd; j++ {
				acc[j] = e.pairRow(acc[j], acc[kt:kEnd], sc, j, kt)
			}
		}
	}
	worst := math.Inf(1)
	for k := 0; k < m; k++ {
		intf := acc[k]
		mg := math.Inf(1)
		if intf != 0 {
			mg = sc.sig[k] / (e.p.Beta * intf)
		}
		if mg < worst {
			worst = mg
		}
	}
	return worst
}

// gridDim returns the base-grid dimension for a slot of m senders: the
// smallest power of two whose square holds m at no more than
// engineCellOcc senders per cell, clamped to [4, engineMaxGridDim].
func gridDim(m int) int {
	d := 4
	for d < engineMaxGridDim && d*d*engineCellOcc < m {
		d <<= 1
	}
	return d
}

// buildGrid buckets the slot's senders into the base grid and builds the
// pyramid bottom-up, writing the structure into g. It reports false when
// the sender extent is degenerate or non-finite, in which case the caller
// falls back to the exact path.
func (e *Engine) buildGrid(sc *EngineScratch, g *SlotGrid, m int) bool {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for k := 0; k < m; k++ {
		minX = min(minX, sc.px[k])
		maxX = max(maxX, sc.px[k])
		minY = min(minY, sc.py[k])
		maxY = max(maxY, sc.py[k])
	}
	ext := max(maxX-minX, maxY-minY)
	if !(ext > 0) || math.IsInf(ext, 1) {
		return false
	}
	d0 := gridDim(m)
	g.d0 = d0
	g.invCS = float64(d0) / ext
	g.gridOX, g.gridOY = minX, minY

	if cap(g.cellOf) < m {
		g.cellOf = make([]int32, m)
		g.posOf = make([]int32, m)
		g.members = make([]int32, m)
		g.cpx = make([]float64, m)
		g.cpy = make([]float64, m)
		g.cpw = make([]float64, m)
	}
	g.cellOf = g.cellOf[:m]
	g.posOf = g.posOf[:m]
	g.members = g.members[:m]
	g.cpx, g.cpy, g.cpw = g.cpx[:m], g.cpy[:m], g.cpw[:m]

	// Pyramid layout: level 0 is the d0×d0 base; each higher level halves
	// the dimension down to a single root node.
	levels := 1
	for d := d0; d > 1; d >>= 1 {
		levels++
	}
	g.levelOff = g.levelOff[:0]
	total := 0
	for l, d := 0, d0; l < levels; l, d = l+1, d>>1 {
		g.levelOff = append(g.levelOff, total)
		total += d * d
	}
	if cap(g.nodes) < total {
		g.nodes = make([]engineNode, total)
	}
	g.nodes = g.nodes[:total]
	clear(g.nodes)
	if cap(g.starts) < d0*d0+1 {
		g.starts = make([]int32, d0*d0+1)
	}
	g.starts = g.starts[:d0*d0+1]
	clear(g.starts)

	// Base cells: power mass, exact sender bounding boxes, CSR membership.
	for k := 0; k < m; k++ {
		cx := cellCoord(sc.px[k]-minX, g.invCS, d0)
		cy := cellCoord(sc.py[k]-minY, g.invCS, d0)
		g.cellOf[k] = int32(cy*d0 + cx)
		n := &g.nodes[cy*d0+cx]
		if n.mass == 0 {
			n.minX, n.maxX = sc.px[k], sc.px[k]
			n.minY, n.maxY = sc.py[k], sc.py[k]
		} else {
			n.minX = min(n.minX, sc.px[k])
			n.maxX = max(n.maxX, sc.px[k])
			n.minY = min(n.minY, sc.py[k])
			n.maxY = max(n.maxY, sc.py[k])
		}
		n.mass += sc.pw[k]
		g.starts[g.cellOf[k]+1]++
	}
	g.nonEmpty = 0
	for c := 0; c < d0*d0; c++ {
		if g.starts[c+1] > 0 {
			g.nonEmpty++
		}
		g.starts[c+1] += g.starts[c]
	}
	if cap(sc.fill) < d0*d0 {
		sc.fill = make([]int32, d0*d0)
	}
	sc.fill = sc.fill[:d0*d0]
	copy(sc.fill, g.starts[:d0*d0])
	for k := 0; k < m; k++ {
		c := g.cellOf[k]
		t := sc.fill[c]
		g.members[t] = int32(k)
		g.posOf[k] = t
		g.cpx[t], g.cpy[t], g.cpw[t] = sc.px[k], sc.py[k], sc.pw[k]
		sc.fill[c]++
	}

	g.buildPyramid()
	return true
}

// buildPyramid builds the levels above the base from the base cells: each
// node is the union of its non-empty children — bounding box and power mass,
// the first child assigning and later ones adding in child order — with
// its 4-bit child-occupancy mask. Every upper node must be zero on entry.
func (g *SlotGrid) buildPyramid() {
	total := len(g.nodes)
	if cap(g.childMask) < total {
		g.childMask = make([]uint8, total)
	}
	g.childMask = g.childMask[:total]
	for l, d := 1, g.d0>>1; d >= 1; l, d = l+1, d>>1 {
		off, coff := g.levelOff[l], g.levelOff[l-1]
		cd := d << 1
		for y := 0; y < d; y++ {
			for x := 0; x < d; x++ {
				n := &g.nodes[off+y*d+x]
				var mask uint8
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						ch := &g.nodes[coff+(2*y+dy)*cd+(2*x+dx)]
						if ch.mass == 0 {
							continue
						}
						mask |= 1 << (dy*2 + dx)
						if n.mass == 0 {
							*n = *ch
						} else {
							n.minX = min(n.minX, ch.minX)
							n.maxX = max(n.maxX, ch.maxX)
							n.minY = min(n.minY, ch.minY)
							n.maxY = max(n.maxY, ch.maxY)
							n.mass += ch.mass
						}
					}
				}
				g.childMask[off+y*d+x] = mask
			}
		}
	}
}

// cellCoord maps an offset from the grid origin to a clamped cell
// coordinate. The clamp keeps the bbox-max sender (offset·invCS == d0) and
// any rounding stragglers inside the grid.
func cellCoord(off, invCS float64, d0 int) int {
	c := int(off * invCS)
	if c < 0 {
		return 0
	}
	if c >= d0 {
		return d0 - 1
	}
	return c
}

// descend is the refinement ladder's per-link walk: it computes the
// certified margin interval of slot member k by a Barnes–Hut-style descent
// of the pyramid at opening threshold theta2. Far nodes contribute
// aggregated power-mass bounds, near base cells are summed exactly on the
// SoA kernels, and the member's own sender is excluded wherever it lands
// (by position in exact cells, by mass subtraction in aggregated nodes). It
// overwrites sc.lb[k], sc.ub[k] and sc.near[k].
func (e *Engine) descend(sc *EngineScratch, g *SlotGrid, k int, theta2 float64, st *EngineStats) {
	d0 := g.d0
	top := len(g.levelOff) - 1
	selfCX := int32(int(g.cellOf[k]) % d0)
	selfCY := int32(int(g.cellOf[k]) / d0)
	qxk, qyk := sc.qx[k], sc.qy[k]
	nodes, levelOff := g.nodes, g.levelOff
	stack := sc.stack[:0]
	var farNodes, nearPairs, nearCells int64

	var exact, lo, hi float64
	stack = append(stack, nodeRef{int32(top), 0, 0})
	for len(stack) > 0 {
		nr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		l := int(nr.level)
		dim := d0 >> l
		ni := levelOff[l] + int(nr.y)*dim + int(nr.x)
		n := &nodes[ni]
		mass := n.mass
		if selfCX>>nr.level == nr.x && selfCY>>nr.level == nr.y {
			mass -= sc.pw[k]
		}
		// Squared distances from the receiver to the node's sender bbox:
		// nearest point of the box, and farthest corner. The nearest-point
		// offsets are computed branchlessly (max of the two signed gaps and
		// zero — both gaps are negative inside the box), which the compiler
		// lowers to float max instructions instead of unpredictable
		// branches.
		dx := max(n.minX-qxk, qxk-n.maxX, 0)
		dy := max(n.minY-qyk, qyk-n.maxY, 0)
		mind2 := dx*dx + dy*dy
		fx := max(qxk-n.minX, n.maxX-qxk)
		fy := max(qyk-n.minY, n.maxY-qyk)
		maxd2 := fx*fx + fy*fy
		if mind2 > 0 && maxd2 <= theta2*mind2 {
			if mass > 0 {
				farNodes++
				l, h := farBounds(mass, e.powD2(maxd2), e.powD2(mind2))
				lo += l
				hi += h
			}
			continue
		}
		if l == 0 {
			// Near field: exact pairwise sum over the cell, scanning the
			// cell-ordered sender copies (contiguous) rather than gathering
			// through the member indices.
			c := int(nr.y)*d0 + int(nr.x)
			t0, t1 := g.starts[c], g.starts[c+1]
			nearCells++
			if int32(c) == g.cellOf[k] {
				tk := g.posOf[k]
				exact = e.rowSumFast(exact, g.cpx[t0:tk], g.cpy[t0:tk], g.cpw[t0:tk], qxk, qyk)
				exact = e.rowSumFast(exact, g.cpx[tk+1:t1], g.cpy[tk+1:t1], g.cpw[tk+1:t1], qxk, qyk)
				nearPairs += int64(t1 - t0 - 1)
			} else {
				exact = e.rowSumFast(exact, g.cpx[t0:t1], g.cpy[t0:t1], g.cpw[t0:t1], qxk, qyk)
				nearPairs += int64(t1 - t0)
			}
			continue
		}
		// Open the node: push only the non-empty children, consulting the
		// one-byte occupancy mask instead of probing four scattered child
		// structs.
		cx, cy := nr.x<<1, nr.y<<1
		cl := nr.level - 1
		mask := g.childMask[ni]
		for i := uint8(0); i < 4; i++ {
			if mask&(1<<i) != 0 {
				stack = append(stack, nodeRef{cl, cx + int32(i&1), cy + int32(i>>1)})
			}
		}
	}
	sc.stack = stack
	st.FarNodes += farNodes
	st.RefinedCells += nearCells
	sc.near[k] = int32(nearPairs)
	e.setInterval(sc, k, exact, lo, hi)
}

// descendShared is the coarse first pass of every grid slot: one
// level-ordered pyramid walk for the whole slot instead of one per link. The
// far/near classification uses each sender cell's receiver bounding box, so
// a node accepted as far is far — and its aggregated [mass/maxdist^α,
// mass/mindist^α] interval certified — for every receiver in the cell
// simultaneously. Ancestors of the cell itself are always opened (never
// aggregated), so the members' own senders are excluded positionally in the
// base-cell sums, and no mass subtraction is needed. The outer base cells
// left near are then screened per receiver (see the final loop).
//
// The shared bounds are wider than per-link ones by the receiver spread,
// which only inflates the candidate set tier 2 then refines — certification,
// and with it the bit-exact final margin, is unaffected. Writes sc.lb, sc.ub
// and sc.near for every member.
func (e *Engine) descendShared(sc *EngineScratch, g *SlotGrid, theta2 float64, st *EngineStats) {
	d0 := g.d0
	nc := d0 * d0
	if cap(sc.rminx) < nc {
		sc.rminx, sc.rmaxx = make([]float64, nc), make([]float64, nc)
		sc.rminy, sc.rmaxy = make([]float64, nc), make([]float64, nc)
		sc.cellLo, sc.cellHi = make([]float64, nc), make([]float64, nc)
		sc.ccx, sc.ccy = make([]int32, nc), make([]int32, nc)
	}
	rminx, rmaxx := sc.rminx[:nc], sc.rmaxx[:nc]
	rminy, rmaxy := sc.rminy[:nc], sc.rmaxy[:nc]
	cellLo, cellHi := sc.cellLo[:nc], sc.cellHi[:nc]
	ccx, ccy := sc.ccx[:nc], sc.ccy[:nc]

	// Per non-empty cell: the receiver bounding box, zeroed far-field
	// accumulators, the cell coordinates, and a place in the root frontier —
	// every non-empty cell starts open at the pyramid top.
	curL := sc.flCur[:0]
	for c := 0; c < nc; c++ {
		t0, t1 := g.starts[c], g.starts[c+1]
		if t0 == t1 {
			continue
		}
		k0 := int(g.members[t0])
		rminx[c], rmaxx[c] = sc.qx[k0], sc.qx[k0]
		rminy[c], rmaxy[c] = sc.qy[k0], sc.qy[k0]
		for _, k := range g.members[t0+1 : t1] {
			rminx[c] = min(rminx[c], sc.qx[k])
			rmaxx[c] = max(rmaxx[c], sc.qx[k])
			rminy[c] = min(rminy[c], sc.qy[k])
			rmaxy[c] = max(rmaxy[c], sc.qy[k])
		}
		cellLo[c], cellHi[c] = 0, 0
		ccx[c], ccy[c] = int32(c%d0), int32(c/d0)
		curL = append(curL, int32(c))
	}

	// Level-ordered shared descent: one breadth-first pass over the pyramid
	// for the whole slot. Each wave node carries the span of cells still
	// open at it (children inherit their parent's open subset, so spans are
	// contiguous in an append-only pool); the node's bbox is tested against
	// all of its cells in one flat run, so the node load and classification
	// setup amortize across cells instead of restarting a stack walk per
	// cell. Far acceptances accumulate into the per-cell interval; cells
	// that survive to level 0 become (cell, base-cell) near pairs.
	top := len(g.levelOff) - 1
	nodes, levelOff := g.nodes, g.levelOff
	curG := append(sc.fgCur[:0], frontierGroup{0, 0, 0, int32(len(curL))})
	nextG, nextL := sc.fgNext[:0], sc.flNext[:0]
	pc, pb := sc.npCell[:0], sc.npBase[:0]
	var farNodes int64
	for l := top; l >= 0 && len(curG) > 0; l-- {
		dim := d0 >> l
		nextG, nextL = nextG[:0], nextL[:0]
		for _, fg := range curG {
			ni := levelOff[l] + int(fg.ny)*dim + int(fg.nx)
			n := &nodes[ni]
			nminX, nmaxX := n.minX, n.maxX
			nminY, nmaxY := n.minY, n.maxY
			mass := n.mass
			openStart := int32(len(nextL))
			for _, c := range curL[fg.lo:fg.hi] {
				bminx, bmaxx := rminx[c], rmaxx[c]
				bminy, bmaxy := rminy[c], rmaxy[c]
				// Min/max squared distance between the node's sender bbox
				// and the cell's receiver bbox.
				dx := max(nminX-bmaxx, bminx-nmaxX, 0)
				dy := max(nminY-bmaxy, bminy-nmaxY, 0)
				mind2 := dx*dx + dy*dy
				// Ancestors of the home cell hold the members' own senders;
				// always open them so self-exclusion stays positional.
				if mind2 > 0 && !(ccx[c]>>uint(l) == fg.nx && ccy[c]>>uint(l) == fg.ny) {
					fx := max(bmaxx-nminX, nmaxX-bminx)
					fy := max(bmaxy-nminY, nmaxY-bminy)
					maxd2 := fx*fx + fy*fy
					if maxd2 <= theta2*mind2 {
						if mass > 0 {
							farNodes++
							l, h := farBounds(mass, e.powD2(maxd2), e.powD2(mind2))
							cellLo[c] += l
							cellHi[c] += h
						}
						continue
					}
				}
				if l == 0 {
					pc = append(pc, c)
					pb = append(pb, int32(int(fg.ny)*d0+int(fg.nx)))
					continue
				}
				nextL = append(nextL, c)
			}
			if l > 0 && int32(len(nextL)) > openStart {
				cx, cy := fg.nx<<1, fg.ny<<1
				mask := g.childMask[ni]
				for i := uint8(0); i < 4; i++ {
					if mask&(1<<i) != 0 {
						nextG = append(nextG, frontierGroup{cx + int32(i&1), cy + int32(i>>1), openStart, int32(len(nextL))})
					}
				}
			}
		}
		curG, nextG = nextG, curG
		curL, nextL = nextL, curL
	}
	sc.fgCur, sc.fgNext = curG[:0], nextG[:0]
	sc.flCur, sc.flNext = curL[:0], nextL[:0]
	sc.npCell, sc.npBase = pc, pb

	// Counting-sort the near pairs by home cell so each cell's base cells
	// form one contiguous run, in the deterministic wave emission order.
	if cap(sc.nearStart) < nc+1 {
		sc.nearStart = make([]int32, nc+1)
	}
	nearStart := sc.nearStart[:nc+1]
	for i := range nearStart {
		nearStart[i] = 0
	}
	for _, c := range pc {
		nearStart[c+1]++
	}
	for c := 0; c < nc; c++ {
		nearStart[c+1] += nearStart[c]
	}
	if cap(sc.nearOrd) < len(pb) {
		sc.nearOrd = make([]int32, len(pb))
	}
	nearOrd := sc.nearOrd[:len(pb)]
	fill := append(sc.fill[:0], nearStart[:nc]...)
	for i, c := range pc {
		nearOrd[fill[c]] = pb[i]
		fill[c]++
	}
	sc.fill = fill

	for c := 0; c < nc; c++ {
		t0, t1 := g.starts[c], g.starts[c+1]
		if t0 == t1 {
			continue
		}
		// The home cell and its eight neighbours are near for almost every
		// receiver: flatten their senders once into one contiguous run that
		// each member scans split around its own sender, which keeps the
		// self-exclusion positional. The outer near cells are screened per
		// receiver below.
		fpx, fpy, fpw := sc.fpx[:0], sc.fpy[:0], sc.fpw[:0]
		outer := sc.outer[:0]
		homeOff := 0
		for _, bc := range nearOrd[nearStart[c]:nearStart[c+1]] {
			if dx, dy := ccx[bc]-ccx[c], ccy[bc]-ccy[c]; dx*dx > 1 || dy*dy > 1 {
				outer = append(outer, bc)
				continue
			}
			b0, b1 := g.starts[bc], g.starts[bc+1]
			if int(bc) == c {
				homeOff = len(fpx)
			}
			fpx = append(fpx, g.cpx[b0:b1]...)
			fpy = append(fpy, g.cpy[b0:b1]...)
			fpw = append(fpw, g.cpw[b0:b1]...)
		}
		sc.fpx, sc.fpy, sc.fpw, sc.outer = fpx, fpy, fpw, outer
		for t := t0; t < t1; t++ {
			k := int(g.members[t])
			qxk, qyk := sc.qx[k], sc.qy[k]
			sp := homeOff + int(t-t0)
			exact := e.rowSumFast(0, fpx[:sp], fpy[:sp], fpw[:sp], qxk, qyk)
			exact = e.rowSumFast(exact, fpx[sp+1:], fpy[sp+1:], fpw[sp+1:], qxk, qyk)
			pairs := int32(len(fpx) - 1)
			lo, hi := cellLo[c], cellHi[c]
			// Screen the outer cells against this receiver's own point: a
			// cell far for it joins the certified interval, the rest are
			// summed exactly.
			for _, bc := range outer {
				n := &nodes[bc]
				dx := max(n.minX-qxk, qxk-n.maxX, 0)
				dy := max(n.minY-qyk, qyk-n.maxY, 0)
				mind2 := dx*dx + dy*dy
				fx := max(qxk-n.minX, n.maxX-qxk)
				fy := max(qyk-n.minY, n.maxY-qyk)
				maxd2 := fx*fx + fy*fy
				if mind2 > 0 && maxd2 <= theta2*mind2 {
					farNodes++
					l, h := farBounds(n.mass, e.powD2(maxd2), e.powD2(mind2))
					lo += l
					hi += h
					continue
				}
				b0, b1 := g.starts[bc], g.starts[bc+1]
				exact = e.rowSumFast(exact, g.cpx[b0:b1], g.cpy[b0:b1], g.cpw[b0:b1], qxk, qyk)
				pairs += b1 - b0
			}
			sc.near[k] = pairs
			e.setInterval(sc, k, exact, lo, hi)
		}
	}
	st.FarNodes += farNodes
}

// setInterval turns member k's interference bounds — the exact near-field
// sum plus the far-field interval [lo, hi] — into its padded certified
// margin interval [sc.lb[k], sc.ub[k]].
func (e *Engine) setInterval(sc *EngineScratch, k int, exact, lo, hi float64) {
	iLo := exact + lo + e.p.Noise
	iHi := exact + hi + e.p.Noise
	sig := sc.sig[k]
	if iHi == 0 {
		sc.lb[k], sc.ub[k] = math.Inf(1), math.Inf(1)
		return
	}
	sc.lb[k] = sig / (e.p.Beta * iHi) * (1 - intervalPad)
	if iLo == 0 {
		sc.ub[k] = math.Inf(1)
	} else {
		sc.ub[k] = sig / (e.p.Beta * iLo) * (1 + intervalPad)
	}
}
