package mst

import (
	"context"
	"math/rand"
	"testing"

	"aggrate/internal/geom"
)

func BenchmarkEMSTLarge(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	n := 500000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 1e6, Y: r.Float64() * 1e6}
	}
	var st emstStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := emstCtx(context.Background(), pts, &st)
		if err != nil || len(e) != n-1 {
			b.Fatal("bad edge count")
		}
	}
	// Per-point work of the last run: a regression in subtree pruning shows
	// up as nodes/pt or pairs/pt growing, one in same-component pruning as
	// same_pruned collapsing toward zero.
	b.ReportMetric(float64(st.Rounds), "rounds")
	b.ReportMetric(float64(st.NodesVisited)/float64(n), "nodes/pt")
	b.ReportMetric(float64(st.PairsTested)/float64(n), "pairs/pt")
	b.ReportMetric(float64(st.SamePruned), "same_pruned")
	b.ReportMetric(float64(st.CachedPoints), "cached_points")
}

// BenchmarkEMSTCachedEdges isolates the cross-round best-edge cache: a
// clustered instance whose components stay separated for many rounds, so
// frontier points re-offer their cached candidate instead of re-running
// their query. cached_points collapsing toward zero flags a cache regression.
func BenchmarkEMSTCachedEdges(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	n := 20000
	pts := make([]geom.Point, n)
	// 16 dense clusters on a loose grid: intra-cluster merges finish early
	// while the inter-cluster frontier stays stable across rounds.
	for i := range pts {
		c := i % 16
		cx := float64(c%4) * 1e6
		cy := float64(c/4) * 1e6
		pts[i] = geom.Point{X: cx + r.Float64()*1e5, Y: cy + r.Float64()*1e5}
	}
	var st emstStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := emstCtx(context.Background(), pts, &st)
		if err != nil || len(e) != n-1 {
			b.Fatal("bad edge count")
		}
	}
	b.ReportMetric(float64(st.Rounds), "rounds")
	b.ReportMetric(float64(st.PairsTested)/float64(n), "pairs/pt")
	b.ReportMetric(float64(st.CachedPoints), "cached_points")
}
