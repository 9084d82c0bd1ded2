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

// oracleEdges lists the undirected edges of an oracle graph with their
// strengths, each edge once as (i, j) with i < j.
func oracleEdges(g *Graph) ([]edge, []float64) {
	var edges []edge
	var qs []float64
	for i := 0; i < g.N(); i++ {
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			if j := g.Neighbors[k]; int32(i) < j {
				edges = append(edges, edge{int32(i), j})
				qs = append(qs, g.Strengths[k])
			}
		}
	}
	return edges, qs
}

// TestAssembleMatchesOracle: however the edges are shuffled and dealt into
// buffers — one buffer, fewer buffers than scatter groups allow, or more —
// the assembled CSR equals the oracle's, strengths included, on a sparse
// and a dense instance (rows past the long-row sort cutoff).
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
		if tc.name == "dense-800" && want.MaxDegree() < 4*longRow {
			t.Fatalf("%s: max degree %d does not exercise the long-row sort", tc.name, want.MaxDegree())
		}
		edges, qs := oracleEdges(want)
		for _, nbufs := range []int{1, 2, 3, 5, 16} {
			perm := r.Perm(len(edges))
			bufs := make([][]edge, nbufs)
			qbufs := make([][]float64, nbufs)
			for k, p := range perm {
				b := k % nbufs
				e := edges[p]
				if r.Intn(2) == 0 {
					e.i, e.j = e.j, e.i // either endpoint may own an edge
				}
				bufs[b] = append(bufs[b], e)
				qbufs[b] = append(qbufs[b], qs[p])
			}
			got, err := assemble(tc.links, tc.fg.fam.At(tc.fg.gamma), bufs, qbufs)
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

// TestEdgeCountGuard: an edge total whose 2·edges CSR entries overflow the
// int32 index is refused with a wrapped ErrTooManyEdges (checked on the
// count, not by allocating 2³⁰ edges), and the largest total that fits is
// accepted.
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
