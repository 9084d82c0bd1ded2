package mst

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/rng"
	"aggrate/internal/scenario"
)

// TestEMSTNonFinite: a NaN or ±Inf coordinate is refused with ErrNonFinite
// on both the Prim and the kd-tree path, through every entry point.
func TestEMSTNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{10, 1000} {
			for _, inY := range []bool{false, true} {
				pts := randomPoints(n, 3, 100)
				if inY {
					pts[n/2].Y = bad
				} else {
					pts[n-1].X = bad
				}
				if edges, err := EMSTCtx(context.Background(), pts); edges != nil || !errors.Is(err, ErrNonFinite) {
					t.Errorf("%v n=%d inY=%v: EMSTCtx = (%d edges, %v), want ErrNonFinite", bad, n, inY, len(edges), err)
				}
				if edges := EMST(pts); edges != nil {
					t.Errorf("%v n=%d inY=%v: EMST returned %d edges", bad, n, inY, len(edges))
				}
				if _, err := NewMSTTree(pts, 0); !errors.Is(err, ErrNonFinite) {
					t.Errorf("%v n=%d inY=%v: NewMSTTree error %v, want ErrNonFinite", bad, n, inY, err)
				}
			}
		}
	}
}

// TestEMSTOverflowingDistances: finite coordinates whose squared distances
// overflow to +Inf still get the exact tree, on the Prim path (n < 256) and
// the kd-tree path alike.
func TestEMSTOverflowingDistances(t *testing.T) {
	for _, n := range []int{10, 300} {
		pts := randomPoints(n, 8, 1)
		for i := range pts {
			pts[i].X = (pts[i].X - 0.5) * 1e308
			pts[i].Y = (pts[i].Y - 0.5) * 1e308
		}
		got, err := EMSTCtx(context.Background(), pts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !sameEdges(got, kruskalTotalOrder(pts, math.Inf(1))) {
			t.Fatalf("n=%d: edge set differs from the total-order Kruskal tree", n)
		}
	}
}

// TestEMSTDeterministicAcrossGOMAXPROCS: the edge slice, order and
// orientation included, does not depend on how many workers share a round.
func TestEMSTDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	inputs := map[string][]geom.Point{
		"uniform-20000": randomPoints(20000, 61, 1000),
		"cluster-20000": clusteredPoints(20000, 62),
		"lattice-90x90": latticePoints(90, 90),
	}
	for name, pts := range inputs {
		var want []Edge
		for _, p := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(p)
			got := EMST(pts)
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("%s: GOMAXPROCS=%d edge slice differs from GOMAXPROCS=1", name, p)
			}
		}
	}
}

// cancelAfterCtx reports context.Canceled from its (limit+1)-th Err call
// on, a deterministic stand-in for a cancel landing mid-round.
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

// TestEMSTCancel: a context cancelled before the call, or in the middle of
// a round, yields (nil, ctx.Err()) and never a partial edge set.
func TestEMSTCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{100, 5000} {
		if edges, err := EMSTCtx(ctx, randomPoints(n, 4, 1000)); edges != nil || err != context.Canceled {
			t.Fatalf("n=%d pre-cancelled: (%d edges, %v), want (nil, context.Canceled)", n, len(edges), err)
		}
	}
	// n=20000 has 1024 leaves, 64 blocks per round: the limits land in
	// the first round, in a later one, and at its last block.
	pts := clusteredPoints(20000, 5)
	for _, limit := range []int64{1, 10, 40, 200, 300} {
		c := &cancelAfterCtx{Context: context.Background()}
		c.limit.Store(limit)
		edges, err := EMSTCtx(c, pts)
		if edges != nil || err != context.Canceled {
			t.Fatalf("cancel after %d checks: (%d edges, %v), want (nil, context.Canceled)", limit, len(edges), err)
		}
	}
}

// TestEMSTWorkBounded bounds the kd-tree EMST's work per point — kd-tree
// nodes tested plus point pairs tested, summed over all rounds — on the
// density regimes of the scenario presets at n=10k. Each bound is 1.5× the
// count measured with two workers; the split of blocks between workers
// moves it by a few percent (one worker needs 108, 220, 100 and 94). The
// uniform-grid Borůvka the kd-tree replaced needed 132, 10,566, 2,660 and
// 18,488 cells visited plus pairs tested per point on these inputs, so a
// regression to density-blind search fails here.
func TestEMSTWorkBounded(t *testing.T) {
	bounds := map[string]float64{ // 1.5 × the count measured with 2 workers
		"uniform": 1.5 * 112,
		"cluster": 1.5 * 226,
		"hotspot": 1.5 * 104,
		"annulus": 1.5 * 99,
	}
	for _, name := range []string{"uniform", "cluster", "hotspot", "annulus"} {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		pts := sc.Generate(10000, 1)
		var st emstStats
		if _, err := emstCtx(context.Background(), pts, &st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		work := float64(st.NodesVisited+st.PairsTested) / float64(len(pts))
		t.Logf("%s: rounds=%d nodes/pt=%.1f pairs/pt=%.1f work/pt=%.1f (bound %.0f)", name, st.Rounds,
			float64(st.NodesVisited)/float64(len(pts)), float64(st.PairsTested)/float64(len(pts)), work, bounds[name])
		if work > bounds[name] {
			t.Errorf("%s: %.1f nodes+pairs per point, bound %.0f", name, work, bounds[name])
		}
	}
}

// FuzzEMSTMatchesKruskal checks EMST against the total-order Kruskal oracle
// on the inputs that stress exactness: duplicate points, integer lattices
// (ties everywhere), tight far-apart clusters, and coordinates scaled by
// 10^e for e in [-300, 300], where squared distances underflow to zero or
// overflow to +Inf (and coordinates themselves may overflow, which must
// give ErrNonFinite).
func FuzzEMSTMatchesKruskal(f *testing.F) {
	for kind := uint8(0); kind < 5; kind++ {
		f.Add(uint64(kind)+1, uint16(0), kind, int16(0))
		f.Add(uint64(kind)+7, uint16(1500), kind, int16(-300))
		f.Add(uint64(kind)+9, uint16(2744), kind, int16(300))
	}
	f.Add(uint64(3), uint16(900), uint8(3), int16(150))
	f.Add(uint64(4), uint16(600), uint8(1), int16(-160))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, kind uint8, exp int16) {
		n := 256 + int(nRaw)%(3000-256+1)
		scale := math.Pow(10, float64(int(exp)%301))
		r := rng.New(seed)
		pts := make([]geom.Point, n)
		switch kind % 5 {
		case 0: // uniform
			for i := range pts {
				pts[i] = geom.Point{X: r.Float64(), Y: r.Float64()}
			}
		case 1: // integer lattice, with collisions
			side := 1 + int(r.Uint64()%64)
			for i := range pts {
				pts[i] = geom.Point{X: float64(r.Uint64() % uint64(side)), Y: float64(r.Uint64() % uint64(side))}
			}
		case 2: // duplicates of a small pool
			pool := make([]geom.Point, 1+int(r.Uint64()%16))
			for i := range pool {
				pool[i] = geom.Point{X: r.Float64(), Y: r.Float64()}
			}
			for i := range pts {
				pts[i] = pool[r.Uint64()%uint64(len(pool))]
			}
		case 3: // tight clusters far apart
			k := 2 + int(r.Uint64()%6)
			centers := make([]geom.Point, k)
			for i := range centers {
				centers[i] = geom.Point{X: r.Float64() * 1e6, Y: r.Float64() * 1e6}
			}
			for i := range pts {
				c := centers[r.Uint64()%uint64(k)]
				pts[i] = geom.Point{X: c.X + r.NormFloat64()*1e-3, Y: c.Y + r.NormFloat64()*1e-3}
			}
		case 4: // magnitudes spread over decades
			for i := range pts {
				m := math.Pow(10, r.Float64()*20-10)
				pts[i] = geom.Point{X: (r.Float64() - 0.5) * m, Y: (r.Float64() - 0.5) * m}
			}
		}
		finite := true
		for i := range pts {
			pts[i].X *= scale
			pts[i].Y *= scale
			finite = finite && !math.IsInf(pts[i].X, 0) && !math.IsInf(pts[i].Y, 0)
		}
		got, err := EMSTCtx(context.Background(), pts)
		if !finite {
			if got != nil || !errors.Is(err, ErrNonFinite) {
				t.Fatalf("overflowing coordinates: (%d edges, %v), want ErrNonFinite", len(got), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("EMSTCtx: %v", err)
		}
		if len(got) != n-1 {
			t.Fatalf("%d edges for %d points", len(got), n)
		}
		maxD2 := 0.0
		for _, e := range got {
			d2 := pts[e.U].Dist2(pts[e.V])
			if e.Weight != math.Sqrt(d2) {
				t.Fatalf("edge (%d,%d) weight %g, want %g", e.U, e.V, e.Weight, math.Sqrt(d2))
			}
			maxD2 = max(maxD2, d2)
		}
		if want := kruskalTotalOrder(pts, maxD2); !sameEdges(got, want) {
			t.Fatalf("kind %d n=%d scale 1e%d: EMST edge set differs from the total-order Kruskal tree (%d vs %d oracle edges)",
				kind%5, n, int(exp)%301, len(got), len(want))
		}
	})
}
