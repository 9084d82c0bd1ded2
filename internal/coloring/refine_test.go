package coloring_test

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"aggrate/internal/coloring"
	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/scenario"
	"aggrate/internal/scheduler"
	"aggrate/internal/sinr"
)

// refRefine is the Theorem-2 refinement as first written: lengths
// recomputed in the sort key and in every pair, and the additive operator
// through math.Pow. Refine must return the same partition, set for set and
// in the same order.
func refRefine(links []geom.Link, p sinr.Params) [][]int {
	n := len(links)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := links[order[a]].Length(), links[order[b]].Length()
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	var sets [][]int
	for _, i := range order {
		placed := false
		for k := range sets {
			infl := 0.0
			for _, j := range sets[k] {
				infl += refAddOp(p, links[i], links[j])
				if infl >= 1 {
					break
				}
			}
			if infl < 1 {
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

// refAddOp is sinr.Params.AddOp with math.Pow.
func refAddOp(p sinr.Params, j, i geom.Link) float64 {
	d := geom.LinkDist(j, i)
	if d <= 0 {
		return 1
	}
	v := math.Pow(j.Length()/d, p.Alpha)
	if v > 1 {
		return 1
	}
	return v
}

// emstClasses returns the dyadic length classes of the EMST of preset's
// deployment, each as its own link slice.
func emstClasses(tb testing.TB, preset string, n int, seed uint64) [][]geom.Link {
	tb.Helper()
	spec, err := scenario.Lookup(preset)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := mst.NewMSTTree(spec.Generate(n, seed), 0)
	if err != nil {
		tb.Fatal(err)
	}
	classes, err := scheduler.LengthClasses(tree.Links)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]geom.Link, len(classes))
	for c, idx := range classes {
		for _, i := range idx {
			out[c] = append(out[c], tree.Links[i])
		}
	}
	return out
}

// TestRefineMatchesReference: the length-hoisted, integer-α Refine returns
// the reference partition on every length class of three deployment
// shapes, at the integer α of the experiments and at a fractional one.
func TestRefineMatchesReference(t *testing.T) {
	for _, preset := range []string{"uniform", "cluster", "hotspot-multi"} {
		for seed := uint64(1); seed <= 2; seed++ {
			for c, class := range emstClasses(t, preset, 3000, seed) {
				for _, alpha := range []float64{3, 2.5} {
					p := sinr.Params{Alpha: alpha, Beta: 2, Epsilon: 0.5}
					got := coloring.Refine(class, p)
					if want := refRefine(class, p); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d class %d α=%g: %d sets, reference %d (or different members)",
							preset, seed, c, alpha, len(got), len(want))
					}
					if err := coloring.VerifyRefinement(class, got, p); err != nil {
						t.Fatalf("%s seed %d class %d α=%g: %v", preset, seed, c, alpha, err)
					}
				}
			}
		}
	}
}

var (
	refineClassOnce sync.Once
	refineClass     []geom.Link
	benchSets       [][]int
)

// BenchmarkRefine times the Theorem-2 refinement of one 2,000-link length
// class: the first 2,000 links of the largest class of a uniform n=5,000
// EMST.
func BenchmarkRefine(b *testing.B) {
	refineClassOnce.Do(func() {
		for _, class := range emstClasses(b, "uniform", 5000, 1) {
			if len(class) > len(refineClass) {
				refineClass = class
			}
		}
	})
	if len(refineClass) < 2000 {
		b.Fatalf("largest class has %d links, want ≥ 2000", len(refineClass))
	}
	class := refineClass[:2000]
	p := sinr.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSets = coloring.Refine(class, p)
	}
}
