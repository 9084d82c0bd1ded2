package conflict

import (
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/rng"
	"aggrate/internal/scenario"
)

// TestBuildStatsPinned pins the build's pruning counters exactly, per
// family, on two fixed instances. The counters are deterministic in the
// input, so any change to a search radius, a cell prune or the pair test's
// reject order moves them; the looser candidate-per-edge ratios of the
// timing tests would let a small radius change through. The protocol
// family of the naive strategy is written out here as in fuzzFamilies.
func TestBuildStatsPinned(t *testing.T) {
	links := func(gen scenario.Generator) []geom.Link {
		tree, err := mst.NewMSTTree(gen.Generate(2000, rng.New(1)), 0)
		if err != nil {
			t.Fatalf("NewMSTTree: %v", err)
		}
		return tree.Links
	}
	protocol := Family{Name: "protocol", H: func(x float64) float64 { return x }}
	fams := []Family{GammaFamily(), PowerLawFamily(0.5), LogThresholdFamily(3), protocol}
	for _, tc := range []struct {
		name  string
		links []geom.Link
		want  [4]BuildStats // indexed like fams
	}{
		{"uniform", links(scenario.Uniform{Side: 1000}), [4]BuildStats{
			{CellsScanned: 8633, CellsPruned: 6584, CandScanned: 18280, CandAccepted: 7013},
			{CellsScanned: 10033, CellsPruned: 7385, CandScanned: 36962, CandAccepted: 9203},
			{CellsScanned: 11108, CellsPruned: 11424, CandScanned: 26342, CandAccepted: 9678},
			{CellsScanned: 12312, CellsPruned: 6946, CandScanned: 79019, CandAccepted: 13982},
		}},
		{"annulus", links(scenario.Annulus{RMin: 1, RMax: 1e6}), [4]BuildStats{
			{CellsScanned: 8921, CellsPruned: 23101, CandScanned: 19505, CandAccepted: 6835},
			{CellsScanned: 14575, CellsPruned: 74705, CandScanned: 59753, CandAccepted: 9527},
			{CellsScanned: 19275, CellsPruned: 70918, CandScanned: 57467, CandAccepted: 13429},
			{CellsScanned: 77960, CellsPruned: 20027, CandScanned: 791236, CandAccepted: 18495},
		}},
	} {
		for k, fam := range fams {
			if got := build(t, tc.links, fam, 2).Stats; got != tc.want[k] {
				t.Errorf("%s/%s: stats %+v, want %+v", tc.name, fam.Name, got, tc.want[k])
			}
		}
	}
}
