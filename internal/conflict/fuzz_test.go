package conflict

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"aggrate/internal/geom"
)

// fuzzLinks decodes fuzz bytes into a small link set. The encoding is chosen
// to hit the bucketed build's hard cases on purpose:
//
//   - endpoints live on a small int8 lattice, so duplicate and collinear
//     points are common;
//   - the receiver offset is scaled by 2^(e-8)/8 for e ∈ [0, 16], so link
//     lengths span ~23 dyadic classes within one instance (near-zero lengths
//     included) and length diversity reaches ~10^7 — enough to push
//     LogThreshold(γ, α≈2) search radii far beyond the instance extent.
//
// Byte layout: data[0] is the link count (2–25), then 5 bytes per link:
// sender x, sender y, receiver dx, receiver dy (int8), exponent.
func fuzzLinks(data []byte) []geom.Link {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%24 + 2
	var links []geom.Link
	for k := 0; k < n; k++ {
		b := data[1+5*k:]
		if len(b) < 5 {
			break
		}
		sx := float64(int8(b[0]))
		sy := float64(int8(b[1]))
		scale := math.Ldexp(1, int(b[4]%17)-8) / 8
		rx := sx + float64(int8(b[2]))*scale
		ry := sy + float64(int8(b[3]))*scale
		links = append(links, geom.NewLink(2*k, 2*k+1,
			geom.Point{X: sx, Y: sy}, geom.Point{X: rx, Y: ry}))
	}
	return links
}

// fuzzFamilies are the three threshold families of the paper, with the
// arbitrary-power graph instantiated at α≈2 where the exponent 2/(α-2)
// blows up to 40 — the known-pathological regime for the bucketed build's
// search radii (see TestHugeRadiusTerminates) — plus the linear
// protocol-model threshold of the naive scheduling strategy, which is
// monotone but deliberately not sub-linear (the build's exactness must not
// depend on sub-linearity).
func fuzzFamilies() []famGamma {
	protocol := Family{
		Name: "protocol",
		H:    func(x float64) float64 { return x },
		At: func(gamma float64) Func {
			return Func{Name: fmt.Sprintf("protocol(%g)", gamma), Eval: func(x float64) float64 { return gamma * x }}
		},
	}
	return []famGamma{
		{GammaFamily(), 2},
		{PowerLawFamily(0.5), 2},
		{LogThresholdFamily(2.05), 2},
		{protocol, 2},
	}
}

// checkBuild asserts BuildLookaheadCtx on links under fam.At(gamma) refuses
// exactly the degenerate inputs with ErrDegenerate, and otherwise matches
// both oracles: the factored pairwise scan bit for bit (strengths
// included), and the unfactored Conflicting scan edge for edge. It returns
// the built graph, nil for a degenerate input.
func checkBuild(t *testing.T, links []geom.Link, fam Family, gamma float64) *Graph {
	t.Helper()
	f := fam.At(gamma)
	g, err := BuildLookaheadCtx(context.Background(), links, fam, gamma)
	if degenerate(links, f) {
		if !errors.Is(err, ErrDegenerate) || g != nil {
			t.Fatalf("%s: degenerate input: got (%v, %v), want (nil, ErrDegenerate) on %v", f.Name, g, err, links)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("%s: %v on %v", f.Name, err, links)
	}
	graphsEqual(t, buildNaiveLookahead(links, fam, gamma), g, f.Name)
	graphsEqual(t, BuildNaive(links, f), g, f.Name+"/unfactored")
	return g
}

// pathologicalSeed reproduces the α≈2 hang scenario as fuzz input: a hub of
// near-zero links next to far-away long links, maximizing both the length
// diversity and the ratio between search radius and class extent.
func pathologicalSeed() []byte {
	data := []byte{14} // 16 links
	add := func(sx, sy, dx, dy int8, e byte) {
		data = append(data, byte(sx), byte(sy), byte(dx), byte(dy), e)
	}
	for i := int8(0); i < 8; i++ {
		// Tiny links (scale 2^-8/8) clustered at the origin, collinear.
		add(i%3, 0, 1, 0, 0)
	}
	for i := int8(0); i < 8; i++ {
		// Long links (scale 2^8/8) fanning out from the far corner,
		// including duplicate senders.
		add(100, 100, 2+i, -3, 16)
	}
	return data
}

// FuzzBuildMatchesNaive asserts that the builder is bit-identical to the
// exact O(n²) oracle on adversarial small instances, across all threshold
// families, and that it refuses exactly the degenerate inputs with
// ErrDegenerate.
func FuzzBuildMatchesNaive(f *testing.F) {
	f.Add(pathologicalSeed())
	// Duplicate and collinear points on one axis.
	f.Add([]byte{4, 0, 0, 1, 0, 8, 0, 0, 1, 0, 8, 5, 0, 2, 0, 8, 5, 0, 2, 0, 8})
	// Mixed scales around a cluster.
	f.Add([]byte{8, 10, 10, 3, 4, 2, 10, 10, 3, 4, 14, 250, 250, 1, 1, 8, 0, 0, 100, 100, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fg := range fuzzFamilies() {
			checkBuild(t, fuzzLinks(data), fg.fam, fg.gamma)
		}
	})
}

// TestFuzzSeedsDirectly runs the checked-in seeds through the fuzz body even
// when fuzzing is disabled, so the pathological case stays covered by plain
// `go test`.
func TestFuzzSeedsDirectly(t *testing.T) {
	seeds := [][]byte{
		pathologicalSeed(),
		{4, 0, 0, 1, 0, 8, 0, 0, 1, 0, 8, 5, 0, 2, 0, 8, 5, 0, 2, 0, 8},
	}
	for _, data := range seeds {
		links := fuzzLinks(data)
		if len(links) < 2 {
			t.Fatal("seed decodes to fewer than 2 links")
		}
		for _, fg := range fuzzFamilies() {
			if checkBuild(t, links, fg.fam, fg.gamma) == nil {
				t.Fatalf("%s: seed unexpectedly degenerate", fg)
			}
		}
	}
}
