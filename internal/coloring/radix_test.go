package coloring

import (
	"sort"
	"testing"

	"aggrate/internal/conflict"
	"aggrate/internal/geom"
)

// TestLengthOrderRadixTies drives the radix path (n above lengthRadixMin)
// on link sets with heavy length duplication — the case the MST-based
// parity instances barely produce — and pins the permutation to the stable
// sort it must reproduce: non-increasing length, ties index ascending.
func TestLengthOrderRadixTies(t *testing.T) {
	cases := []struct {
		name    string
		lengths func(i, n int) float64
	}{
		{"three-way-ties", func(i, n int) float64 { return float64(1 + i%3) }},
		{"all-equal", func(i, n int) float64 { return 2.5 }},
		{"sorted-runs", func(i, n int) float64 { return float64(n - i/7) }},
		{"with-zeros", func(i, n int) float64 {
			if i%5 == 0 {
				return 0
			}
			return float64(i % 4)
		}},
	}
	for _, n := range []int{lengthRadixMin, 1000} {
		for _, tc := range cases {
			links := make([]geom.Link, n)
			for i := range links {
				s := geom.Point{X: float64(3 * i), Y: 0}
				r := geom.Point{X: float64(3*i) + tc.lengths(i, n), Y: 0}
				links[i] = geom.NewLink(2*i, 2*i+1, s, r)
			}
			// The order reads only link lengths, so an edgeless graph serves
			// (zero-length links are not buildable).
			g := conflict.FromAdj(links, make([][]int32, n))
			got := ByLengthOrder(g)

			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool {
				return links[want[a]].Length() > links[want[b]].Length()
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: order[%d]=%d, stable oracle %d", tc.name, n, i, got[i], want[i])
				}
			}
		}
	}
}
