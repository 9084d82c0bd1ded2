package conflict

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/rng"
)

// denseGamma is the G_γ threshold at which the n=2000 uniform MST instances
// of these tests have mean degree above 200 — the γ-escalation regime where
// rows run past the long-row sort cutoff.
const denseGamma = 16

// oracleEdges lists the edges of a symmetric oracle graph with their
// strengths, each edge once, oriented as the builder emits it: (i, j) with
// j before i in first-fit order. It also returns the longest oriented row.
func oracleEdges(g *Graph) ([]edge, []float32, int) {
	var edges []edge
	var qs []float32
	longest := 0
	for i := 0; i < g.N(); i++ {
		row := 0
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			if j := g.Neighbors[k]; before(g.Links, j, int32(i)) {
				edges = append(edges, edge{int32(i), j})
				qs = append(qs, g.Strengths[k])
				row++
			}
		}
		longest = max(longest, row)
	}
	return edges, qs, longest
}

// TestAssembleMatchesOracle: however the oriented edges are shuffled and
// dealt into buffers — one buffer, fewer buffers than scatter groups allow,
// or more — the assembled CSR equals the oracle's earlier neighbors,
// strengths included, on a sparse and a dense instance (rows past the
// long-row sort cutoff).
func TestAssembleMatchesOracle(t *testing.T) {
	cases := []struct {
		name  string
		links []geom.Link
		fg    famGamma
	}{
		{"sparse-600", mstLinks(t, 600, 51, 1000), famGamma{PowerLawFamily(0.5), 2}},
		{"dense-800", mstLinks(t, 800, 52, 1000), famGamma{GammaFamily(), 2 * denseGamma}},
	}
	r := rng.New(53)
	for _, tc := range cases {
		want := buildNaiveLookahead(tc.links, tc.fg.fam, tc.fg.gamma)
		edges, qs, longest := oracleEdges(want)
		if tc.name == "dense-800" && longest < 4*longRow {
			t.Fatalf("%s: longest row %d does not exercise the long-row sort", tc.name, longest)
		}
		for _, nbufs := range []int{1, 2, 3, 5, 16} {
			perm := r.Perm(len(edges))
			bufs := make([][]edge, nbufs)
			qbufs := make([][]float32, nbufs)
			for k, p := range perm {
				b := k % nbufs
				bufs[b] = append(bufs[b], edges[p])
				qbufs[b] = append(qbufs[b], qs[p])
			}
			got, err := assemble(tc.links, bufs, qbufs)
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, want, got, fmt.Sprintf("%s/%d buffers", tc.name, nbufs))
		}
	}
}

// TestScatterGroupsBounded: the cursor arrays of every scatter group past
// the first (4·n bytes each) never outgrow the merged copy of the edges
// that the assembler no longer makes, for any buffer count, and there is
// always at least one group and never more groups than buffers.
func TestScatterGroupsBounded(t *testing.T) {
	for _, nbufs := range []int{0, 1, 2, 4, 8, 64} {
		for _, n := range []int{0, 1, 10, 2000, 1_000_000} {
			for _, total := range []int{0, 1, n / 8, n, 30 * n, 300 * n} {
				for _, entryBytes := range []int{8, 16} {
					k := scatterGroups(nbufs, n, total, entryBytes)
					if k < 1 || (nbufs >= 1 && k > nbufs) {
						t.Fatalf("nbufs=%d n=%d total=%d: %d groups", nbufs, n, total, k)
					}
					if 4*n*(k-1) > entryBytes*total {
						t.Fatalf("nbufs=%d n=%d total=%d entry=%dB: %d groups take %d cursor bytes, merged copy %d",
							nbufs, n, total, entryBytes, k, 4*n*(k-1), entryBytes*total)
					}
				}
			}
		}
	}
}

// TestEdgeCountGuard: an edge total past the size cap of MaxInt32/2 edges
// is refused with a wrapped ErrTooManyEdges (checked on the count, not by
// allocating 2³⁰ edges), and the largest total under the cap is accepted.
func TestEdgeCountGuard(t *testing.T) {
	if err := checkEdgeCount(math.MaxInt32 / 2); err != nil {
		t.Fatalf("largest fitting edge count refused: %v", err)
	}
	for _, edges := range []int{math.MaxInt32/2 + 1, math.MaxInt32, 1 << 40} {
		if err := checkEdgeCount(edges); !errors.Is(err, ErrTooManyEdges) {
			t.Fatalf("%d edges: got %v, want ErrTooManyEdges", edges, err)
		}
	}
}

// TestBuildDeterministicAcrossGOMAXPROCS: rows, strengths and pruning
// counters do not depend on how many workers (so edge buffers and scatter
// groups) share the build, on a sparse and a dense instance.
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		name  string
		links []geom.Link
		fg    famGamma
	}{
		{"sparse-20000", mstLinks(t, 20000, 54, 20000), famGamma{PowerLawFamily(0.5), 2}},
		{"dense-2000", mstLinks(t, 2000, 55, 1000), famGamma{GammaFamily(), denseGamma}},
	}
	for _, tc := range cases {
		var want *Graph
		for _, p := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(p)
			got := build(t, tc.links, tc.fg.fam, tc.fg.gamma)
			if want == nil {
				want = got
				if tc.name == "dense-2000" && want.AverageDegree() < 200 {
					t.Fatalf("%s: mean degree %.1f, want >= 200", tc.name, want.AverageDegree())
				}
				continue
			}
			label := fmt.Sprintf("%s GOMAXPROCS=%d", tc.name, p)
			graphsEqual(t, want, got, label)
			if got.Stats != want.Stats {
				t.Fatalf("%s: stats %+v, GOMAXPROCS=1 %+v", label, got.Stats, want.Stats)
			}
		}
	}
}

// cancelAfterCtx reports context.Canceled from its (limit+1)-th Err call
// on, a deterministic stand-in for a cancel landing mid-search.
type cancelAfterCtx struct {
	context.Context
	calls, limit atomic.Int64
}

func (c *cancelAfterCtx) Err() error {
	if c.calls.Add(1) > c.limit.Load() {
		return context.Canceled
	}
	return nil
}

// TestBuildLookaheadCtxCancel: a context cancelled before the call, or in
// the middle of the candidate search, yields (nil, ctx.Err()) — never a
// graph over a partial edge set — and every pooled edge and strength
// buffer the workers took is handed back.
func TestBuildLookaheadCtxCancel(t *testing.T) {
	links := mstLinks(t, 20000, 56, 20000)
	fam := PowerLawFamily(0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if g, err := BuildLookaheadCtx(ctx, links, fam, 2); g != nil || err != context.Canceled {
		t.Fatalf("pre-cancelled: got (%v, %v), want (nil, context.Canceled)", g, err)
	}
	if out := pooledOut.Load(); out != 0 {
		t.Fatalf("pre-cancelled: %d pooled buffers not handed back", out)
	}
	// 20000 links make 313 blocks of 64: the limits land on the first
	// block, early, midway and near the end of the search.
	for _, limit := range []int64{1, 2, 20, 150, 300} {
		c := &cancelAfterCtx{Context: context.Background()}
		c.limit.Store(limit)
		g, err := BuildLookaheadCtx(c, links, fam, 2)
		if g != nil || err != context.Canceled {
			t.Fatalf("cancel after %d checks: got (%v, %v), want (nil, context.Canceled)", limit, g, err)
		}
		if out := pooledOut.Load(); out != 0 {
			t.Fatalf("cancel after %d checks: %d pooled buffers not handed back", limit, out)
		}
	}
	// The same build uncancelled completes and hands its buffers back too.
	build(t, links, fam, 2)
	if out := pooledOut.Load(); out != 0 {
		t.Fatalf("completed build: %d pooled buffers not handed back", out)
	}
}

// BenchmarkBuildDense times the annotated build in the γ-escalation regime
// (n=2000 uniform MST links, G_γ at mean degree above 200), where the row
// sort and the CSR scatter carry a large share of the cost, and reports the
// edge count and the time per edge.
func BenchmarkBuildDense(b *testing.B) {
	links := mstLinks(b, 2000, 55, 1000)
	b.ResetTimer()
	var g *Graph
	for i := 0; i < b.N; i++ {
		g = build(b, links, GammaFamily(), denseGamma)
	}
	b.StopTimer()
	b.ReportMetric(float64(g.Edges()), "edges")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Edges()), "ns/edge")
}

// tableBytes returns the bytes a class grid's cell table holds: the
// open-addressed slots and the compact per-cell keys and start offsets, at
// their allocated capacity.
func (cg *classGrid) tableBytes() int {
	return 4*cap(cg.table) + 8*cap(cg.cellX) + 8*cap(cg.cellY) + 4*cap(cg.start)
}

// TestBuildBytesPerEdge gates the build's memory in hardware-independent
// units on uniform n=100k MST links under G_obl(γ=3, δ=½) at GOMAXPROCS 1:
// the bytes one BuildLookaheadCtx allocates (runtime.MemStats.TotalAlloc,
// with the edge-buffer pools emptied first) per accepted edge, the bytes
// the finished graph keeps live, and the bytes its cell tables hold per
// occupied cell. Worker buffers take 12 B per edge and the one-sided CSR
// 8 B (one int32 neighbor and one float32 strength); the tables, sized by
// occupied cells, take 4 B per slot at load ≤ ½ plus 20 B of keys and
// offsets per cell. The allocation bounds are 1.15× the values measured
// when they were set. The graph must keep no more than its CSR: 8 B per
// edge plus 4 B per row offset, within 1% for the runtime's own churn.
func TestBuildBytesPerEdge(t *testing.T) {
	const (
		maxBytesPerEdge = 1.15 * 46.9
		maxBytesPerCell = 1.15 * 34.6
	)
	// One worker: with more, how blocks split between the workers' edge
	// buffers, and so how much their growth discards, depends on timing.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	links := mstLinks(t, 100_000, 57, 30_000)
	fam := PowerLawFamily(0.5)
	// A pooled buffer survives one GC in the pool's victim cache; two empty
	// the pools, so the build below allocates all of its buffers.
	runtime.GC()
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g := build(t, links, fam, 3)
	runtime.ReadMemStats(&m1)
	perEdge := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(g.Stats.CandAccepted)
	// Two collections free the worker buffers the pools still hold.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	retained := int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
	csr := int64(8*g.Edges() + 4*(g.N()+1))
	t.Logf("graph keeps %d B live, its CSR %d B (%d edges, %d links)", retained, csr, g.Edges(), g.N())
	if cap(g.Neighbors) != g.Edges() || cap(g.Strengths) != g.Edges() || cap(g.RowPtr) != g.N()+1 {
		t.Errorf("CSR capacities %d/%d/%d, want %d/%d/%d", cap(g.Neighbors), cap(g.Strengths), cap(g.RowPtr),
			g.Edges(), g.Edges(), g.N()+1)
	}
	if float64(retained) > 1.01*float64(csr) {
		t.Errorf("graph keeps %d B live, more than its %d B CSR", retained, csr)
	}
	runtime.KeepAlive(g)

	lens, sx, sy, rx, ry := make([]float64, len(links)), make([]float64, len(links)),
		make([]float64, len(links)), make([]float64, len(links)), make([]float64, len(links))
	lmin, lmax := math.Inf(1), 0.0
	for i, l := range links {
		lens[i] = l.Length()
		lmin, lmax = math.Min(lmin, lens[i]), math.Max(lmax, lens[i])
		sx[i], sy[i], rx[i], ry[i] = l.S.X, l.S.Y, l.R.X, l.R.Y
	}
	f := fam.At(3)
	grids, _, _, err := indexClasses(lens, sx, sy, rx, ry, lmin, lmax, f, f.Eval(2))
	if err != nil {
		t.Fatal(err)
	}
	bytes, cells := 0, 0
	for _, cg := range grids {
		if cg != nil {
			bytes += cg.tableBytes()
			cells += cg.cells()
		}
	}
	perCell := float64(bytes) / float64(cells)
	t.Logf("%d edges, %.1f B allocated per edge (bound %.1f); %d cells, %.1f table B per cell (bound %.1f)",
		g.Edges(), perEdge, maxBytesPerEdge, cells, perCell, maxBytesPerCell)
	if perEdge > maxBytesPerEdge {
		t.Errorf("build allocated %.1f B per edge, bound %.1f", perEdge, maxBytesPerEdge)
	}
	if perCell > maxBytesPerCell {
		t.Errorf("cell tables hold %.1f B per cell, bound %.1f", perCell, maxBytesPerCell)
	}
}
