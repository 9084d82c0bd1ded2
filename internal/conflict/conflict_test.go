package conflict

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/rng"
)

// build runs BuildLookaheadCtx with a background context and fails the test
// on any error: callers pass inputs that are not degenerate.
func build(t testing.TB, links []geom.Link, fam Family, gamma float64) *Graph {
	t.Helper()
	g, err := BuildLookaheadCtx(context.Background(), links, fam, gamma)
	if err != nil {
		t.Fatalf("BuildLookaheadCtx(%s, γ=%g): %v", fam.Name, gamma, err)
	}
	return g
}

// CandRatio returns CandScanned/CandAccepted — the mean number of
// distance-tested candidates per accepted edge (0 for an edgeless graph).
// Lower is tighter pruning.
func (s BuildStats) CandRatio() float64 {
	if s.CandAccepted == 0 {
		return 0
	}
	return float64(s.CandScanned) / float64(s.CandAccepted)
}

// mstLinks generates the canonical test workload: the convergecast links of
// a uniform-random pointset's MST.
func mstLinks(t testing.TB, n int, seed uint64, side float64) []geom.Link {
	t.Helper()
	r := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	tree, err := mst.NewMSTTree(pts, 0)
	if err != nil {
		t.Fatalf("NewMSTTree: %v", err)
	}
	return tree.Links
}

// annulusLinks stresses high length diversity (many dyadic classes).
func annulusLinks(t testing.TB, n int, seed uint64) []geom.Link {
	t.Helper()
	r := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		rad := math.Exp(r.Float64() * math.Log(1e5))
		ang := r.Float64() * 2 * math.Pi
		pts[i] = geom.Point{X: rad * math.Cos(ang), Y: rad * math.Sin(ang)}
	}
	tree, err := mst.NewMSTTree(pts, 0)
	if err != nil {
		t.Fatalf("NewMSTTree: %v", err)
	}
	return tree.Links
}

// famGamma is one threshold function in factored form: fam.At(gamma).
type famGamma struct {
	fam   Family
	gamma float64
}

func (fg famGamma) String() string { return fg.fam.At(fg.gamma).Name }

func testFamilies() []famGamma {
	return []famGamma{
		{GammaFamily(), 1},
		{GammaFamily(), 0.5},
		{GammaFamily(), 3},
		{PowerLawFamily(0.5), 2},
		{PowerLawFamily(0.25), 1},
		{LogThresholdFamily(3), 1.5},
		{LogThresholdFamily(2.5), 2},   // exponent 4: log factor overtakes x on a wide range
		{LogThresholdFamily(2.1), 1.5}, // exponent 20: search radius dwarfs the grid extent
	}
}

// before reports whether link j comes before link i in first-fit order —
// longer first, equal lengths by lower index — restated from the Graph
// doc rather than borrowed from the builder.
func before(links []geom.Link, j, i int32) bool {
	lj, li := links[j].Length(), links[i].Length()
	return lj > li || (lj == li && j < i)
}

// graphsEqual asserts that the one-sided graph got matches want bit for
// bit once each row of want is cut to the neighbors that come before the
// row's owner: the same rows in the same order, and — when want carries
// them — the same Strengths. want is either a symmetric oracle (BuildNaive,
// buildNaiveLookahead), whose rows hold both directions of every edge, or
// another one-sided graph, whose rows the cut leaves whole. Since got must
// equal the cut rows, every entry of got comes before its row's owner.
func graphsEqual(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	n := want.N()
	if got.N() != n || len(got.RowPtr) != n+1 || got.RowPtr[0] != 0 {
		t.Fatalf("%s: %d vertices and %d row offsets, oracle %d vertices", label, got.N(), len(got.RowPtr), n)
	}
	if want.Strengths != nil && got.Strengths == nil {
		t.Fatalf("%s: Strengths missing", label)
	}
	edges := 0
	var row []int32
	var qs []float32
	for i := 0; i < n; i++ {
		row, qs = row[:0], qs[:0]
		for k := want.RowPtr[i]; k < want.RowPtr[i+1]; k++ {
			if j := want.Neighbors[k]; before(want.Links, j, int32(i)) {
				row = append(row, j)
				if want.Strengths != nil {
					qs = append(qs, want.Strengths[k])
				}
			}
		}
		if ga := got.Row(i); !slices.Equal(row, ga) {
			t.Fatalf("%s: earlier neighbors of vertex %d differ: oracle=%v got=%v", label, i, row, ga)
		}
		edges += len(row)
		if want.Strengths == nil {
			continue
		}
		for k, q := range got.Strengths[got.RowPtr[i]:got.RowPtr[i+1]] {
			if math.Float32bits(q) != math.Float32bits(qs[k]) {
				t.Fatalf("%s: strength of edge (%d,%d): oracle=%g got=%g", label, i, row[k], qs[k], q)
			}
		}
	}
	if got.Edges() != edges {
		t.Fatalf("%s: edge count mismatch: oracle=%d got=%d", label, edges, got.Edges())
	}
}

// TestBucketedMatchesNaive is the acceptance property: the grid-bucketed
// parallel build must produce a graph identical (adjacency order and
// strengths included) to the exhaustive O(n²) reference, across conflict
// functions and both homogeneous and diversity-heavy instances.
func TestBucketedMatchesNaive(t *testing.T) {
	cases := []struct {
		name  string
		links []geom.Link
	}{
		{"uniform-300", mstLinks(t, 300, 1, 1000)},
		{"uniform-1200", mstLinks(t, 1200, 2, 1000)},
		{"dense-300", mstLinks(t, 300, 3, 10)},
		{"annulus-500", annulusLinks(t, 500, 4)},
	}
	for _, tc := range cases {
		for _, fg := range testFamilies() {
			got := build(t, tc.links, fg.fam, fg.gamma)
			graphsEqual(t, buildNaiveLookahead(tc.links, fg.fam, fg.gamma), got, tc.name+"/"+fg.String())
		}
	}
}

// TestBuildDeterministic: two builds of the same instance must be
// identical despite goroutine scheduling.
func TestBuildDeterministic(t *testing.T) {
	links := mstLinks(t, 800, 6, 1000)
	fam := PowerLawFamily(0.5)
	graphsEqual(t, build(t, links, fam, 2), build(t, links, fam, 2), "repeat")
}

// TestZeroLengthRejected: a link with coinciding endpoints has no dyadic
// length class, so the build refuses the input with ErrDegenerate instead
// of scanning it pairwise.
func TestZeroLengthRejected(t *testing.T) {
	p := geom.Point{X: 1, Y: 1}
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{}, geom.Point{X: 1}),
		geom.NewLink(2, 3, p, p), // zero length
	}
	g, err := BuildLookaheadCtx(context.Background(), links, GammaFamily(), 1)
	if !errors.Is(err, ErrDegenerate) || g != nil {
		t.Fatalf("zero-length link: got (%v, %v), want (nil, ErrDegenerate)", g, err)
	}
}

// TestDegenerateIsBounded proves no quadratic path is left: each kind of
// degenerate 10⁵-link input — a zero-length link at the end, a NaN δ, an
// infinite length, an overflowing f(2), an overflowing cell side and a cell
// side too small for int64 cell indices — is refused with ErrDegenerate
// before the candidate search starts. A counting context shows it: the
// build checks ctx once on entry and the search polls it once per block of
// 64 links, so a refusal after exactly one check never reached the search
// (a pairwise scan would test 5·10⁹ pairs).
func TestDegenerateIsBounded(t *testing.T) {
	const n = 100_000
	r := rng.New(35)
	links := make([]geom.Link, n)
	for i := range links {
		a := geom.Point{X: r.Float64() * 1e4, Y: r.Float64() * 1e4}
		links[i] = geom.NewLink(2*i, 2*i+1, a, geom.Point{X: a.X + 1 + r.Float64(), Y: a.Y})
	}
	with := func(k int, l geom.Link) []geom.Link {
		out := slices.Clone(links)
		out[k] = l
		return out
	}
	cases := []struct {
		name  string
		links []geom.Link
		fg    famGamma
	}{
		{"zero-length", with(n-1, geom.NewLink(0, 0, geom.Point{}, geom.Point{})), famGamma{GammaFamily(), 2}},
		{"nan-delta", links, famGamma{PowerLawFamily(math.NaN()), 2}},
		{"inf-length", with(n-1, geom.NewLink(0, 1, geom.Point{X: -1e308}, geom.Point{X: 1e308})), famGamma{GammaFamily(), 2}},
		{"f2-overflow", links, famGamma{GammaFamily(), math.Inf(1)}},
		{"cell-overflow", with(n-1, geom.NewLink(0, 1, geom.Point{}, geom.Point{X: 1e300})), famGamma{PowerLawFamily(0.5), 1e10}},
		{"cell-index-overflow", links, famGamma{PowerLawFamily(0.5), 1e-16}},
	}
	for _, tc := range cases {
		if !degenerate(tc.links, tc.fg.fam.At(tc.fg.gamma)) {
			t.Fatalf("%s: fixture is not degenerate", tc.name)
		}
		ctx := &cancelAfterCtx{Context: context.Background()}
		ctx.limit.Store(math.MaxInt64)
		g, err := BuildLookaheadCtx(ctx, tc.links, tc.fg.fam, tc.fg.gamma)
		if !errors.Is(err, ErrDegenerate) || g != nil {
			t.Fatalf("%s: got (%v, %v), want (nil, ErrDegenerate)", tc.name, g, err)
		}
		if calls := ctx.calls.Load(); calls != 1 {
			t.Fatalf("%s: ctx checked %d times before the refusal, want 1 (the entry check): the search ran", tc.name, calls)
		}
		t.Logf("%s: %v", tc.name, err)
	}
	// The counter does see the search: a sound build polls ctx at least
	// once per block.
	ctx := &cancelAfterCtx{Context: context.Background()}
	ctx.limit.Store(math.MaxInt64)
	const sound = 10_000
	if _, err := BuildLookaheadCtx(ctx, links[:sound], GammaFamily(), 2); err != nil {
		t.Fatal(err)
	}
	if calls := ctx.calls.Load(); calls < sound/64 {
		t.Fatalf("sound build checked ctx %d times, want at least one per block (%d)", calls, sound/64)
	}
}

// TestOverflowingRadiusIsExact: a length ratio or search radius beyond
// float64 is not degenerate. The infinite radius clamps to the occupied
// cells, and the build still matches the oracle, whose thresholds are
// infinite for the same pairs.
func TestOverflowingRadiusIsExact(t *testing.T) {
	o := geom.Point{}
	tiny := geom.Point{X: 1e-308}
	cases := []struct {
		name  string
		links []geom.Link
	}{
		// l_max/l_min overflows: the MST of {0, 1e-308, 1e30} on a line.
		{"ratio", []geom.Link{
			geom.NewLink(0, 1, o, tiny),
			geom.NewLink(1, 2, tiny, geom.Point{X: 1e30}),
		}},
		// l_max/l_min is finite, l_max·f(l_max/l_min) is not.
		{"radius", append(mstLinks(t, 200, 36, 100), geom.NewLink(0, 1, o, geom.Point{Y: 1e290}))},
	}
	for _, tc := range cases {
		for _, fg := range testFamilies() {
			got := build(t, tc.links, fg.fam, fg.gamma)
			graphsEqual(t, buildNaiveLookahead(tc.links, fg.fam, fg.gamma), got, tc.name+"/"+fg.String())
		}
	}
}

// TestHugeRadiusTerminates pins the fix for the unbounded cell scan: for
// LogThreshold with α near 2 the cross-class search radius can exceed the
// cell size by a factor of 1e6+, and an unclamped rectangle loop would
// visit ~1e12 cells per link, so Build effectively never finished. The
// clamped scan must complete promptly and still match the naive oracle.
func TestHugeRadiusTerminates(t *testing.T) {
	links := annulusLinks(t, 400, 4)
	fam := LogThresholdFamily(2.1)
	done := make(chan error, 1)
	var g *Graph
	go func() {
		var err error
		g, err = BuildLookaheadCtx(context.Background(), links, fam, 1.5)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("build did not terminate within 30s on annulus links with LogThreshold(1.5, 2.1)")
	}
	graphsEqual(t, buildNaiveLookahead(links, fam, 1.5), g, "huge-radius")
}

// TestBucketedFasterAt10k is the performance half of the acceptance
// criterion, in hardware-independent work: at n=10⁴ the bucketed build
// distance-tests CandScanned candidates where the pairwise oracle tests
// all n(n−1)/2 = 5·10⁷ pairs. The gate is 1.15× the count measured when it
// was set (a deterministic counter: scan order does not change it), and
// the graph must still equal the oracle's.
func TestBucketedFasterAt10k(t *testing.T) {
	if testing.Short() {
		t.Skip("the O(n²) oracle is skipped in -short mode")
	}
	const maxCandScanned = 1.15 * 215_850
	links := mstLinks(t, 10_000, 9, 10_000)
	fam := PowerLawFamily(0.5)
	bucketed := build(t, links, fam, 2)
	graphsEqual(t, buildNaiveLookahead(links, fam, 2), bucketed, "10k")

	n := int64(len(links))
	pairs := n * (n - 1) / 2
	scanned := bucketed.Stats.CandScanned
	t.Logf("n=10k: %d candidates tested (bound %.0f) against %d oracle pair tests: %.0fx fewer",
		scanned, maxCandScanned, pairs, float64(pairs)/float64(scanned))
	if float64(scanned) > maxCandScanned {
		t.Errorf("bucketed build tested %d candidates, bound %.0f", scanned, maxCandScanned)
	}
}

func BenchmarkBuildBucketed10k(b *testing.B) {
	links := mstLinks(b, 10_000, 9, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(b, links, PowerLawFamily(0.5), 2)
	}
}

func BenchmarkBuildNaive10k(b *testing.B) {
	links := mstLinks(b, 10_000, 9, 10_000)
	f := PowerLaw(2, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildNaive(links, f)
	}
}

// BenchmarkScanCell isolates the candidate-scan half of the bucketed build
// (searchLink → scanCandCell over the cell-local SoA mirrors): a mid-size
// uniform instance where grid setup and CSR assembly are small against the
// per-cell scans, with the pruning counters reported alongside the time so
// the cells-pruned and candidates-per-edge trajectories are visible in the
// CI bench-smoke artifact next to the ns/op.
func BenchmarkScanCell(b *testing.B) {
	links := mstLinks(b, 20_000, 9, 20_000)
	b.ResetTimer()
	var st BuildStats
	for i := 0; i < b.N; i++ {
		st = build(b, links, PowerLawFamily(0.5), 2).Stats
	}
	b.ReportMetric(float64(st.CellsScanned), "cells_scanned")
	b.ReportMetric(float64(st.CellsPruned), "cells_pruned")
	b.ReportMetric(st.CandRatio(), "cand_per_edge")
}

func BenchmarkBuildBucketed50k(b *testing.B) {
	links := mstLinks(b, 50_000, 9, 30_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(b, links, PowerLawFamily(0.5), 2)
	}
}
