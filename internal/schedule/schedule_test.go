package schedule

import (
	"context"
	"math"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/sinr"
)

func pairLinks() []geom.Link {
	return []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{X: 10}, geom.Point{X: 11}),
	}
}

func TestFromColoring(t *testing.T) {
	links := pairLinks()
	s, err := FromColoring(links, []int{0, 1})
	if err != nil {
		t.Fatalf("FromColoring: %v", err)
	}
	if s.Period() != 2 || s.Rate() != 0.5 {
		t.Fatalf("period=%d rate=%g, want 2 and 0.5", s.Period(), s.Rate())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := FromColoring(links, []int{0, -1}); err == nil {
		t.Fatal("FromColoring accepted an uncolored link")
	}
	if _, err := FromColoring(links, []int{0}); err == nil {
		t.Fatal("FromColoring accepted a short color slice")
	}
}

// TestMulticolorRate: a link appearing in several slots raises the rate —
// the Sec. 4 mechanism that beats any proper coloring on the 5-cycle.
func TestMulticolorRate(t *testing.T) {
	links := pairLinks()
	s := New(links, [][]int{{0, 1}, {0}, {1}})
	occ := s.Occurrences()
	if occ[0] != 2 || occ[1] != 2 {
		t.Fatalf("Occurrences = %v, want [2 2]", occ)
	}
	if got, want := s.Rate(), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Rate = %g, want %g", got, want)
	}
}

func TestValidateRejects(t *testing.T) {
	links := pairLinks()
	if err := New(links, [][]int{{0, 0}, {1}}).Validate(); err == nil {
		t.Fatal("Validate accepted a duplicate within a slot")
	}
	if err := New(links, [][]int{{0}}).Validate(); err == nil {
		t.Fatal("Validate accepted a never-scheduled link")
	}
	if err := New(links, [][]int{{0}, {5}}).Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-range index")
	}
}

func TestVerifySINR(t *testing.T) {
	p := sinr.Params{Alpha: 3, Beta: 2, Noise: 0, Epsilon: 0}
	links := pairLinks()
	// Separate slots: singletons, infinite margin, feasible.
	s, _ := FromColoring(links, []int{0, 1})
	m, _, err := s.VerifySINRDelta(context.Background(), p, FixedPower([]float64{1, 1}), nil)
	if err != nil || !math.IsInf(m, 1) {
		t.Fatalf("singleton slots: margin=%v err=%v, want +Inf, nil", m, err)
	}
	// Same slot: the hand-computed margin 364.5 from the sinr tests.
	s2, _ := FromColoring(links, []int{0, 0})
	m, _, err = s2.VerifySINRDelta(context.Background(), p, FixedPower([]float64{1, 1}), nil)
	if err != nil || math.Abs(m-364.5) > 1e-9 {
		t.Fatalf("joint slot: margin=%v err=%v, want 364.5, nil", m, err)
	}
	// Infeasible joint slot must be reported.
	close2 := []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{X: 2}, geom.Point{X: 3}),
	}
	s3, _ := FromColoring(close2, []int{0, 0})
	if _, _, err := s3.VerifySINRDelta(context.Background(), p, FixedPower([]float64{1, 1}), nil); err == nil {
		t.Fatal("VerifySINRDelta accepted an infeasible slot")
	}
}

func TestConcat(t *testing.T) {
	links := pairLinks()
	a, _ := FromColoring(links, []int{0, 0})
	b, _ := FromColoring(links, []int{0, 1})
	c, err := Concat(a, b)
	if err != nil || c.Period() != 3 {
		t.Fatalf("Concat: period=%d err=%v, want 3, nil", c.Period(), err)
	}
	if occ := c.Occurrences(); occ[0] != 2 || occ[1] != 2 {
		t.Fatalf("Concat occurrences = %v, want [2 2]", occ)
	}
	if _, err := Concat(a, New(links[:1], [][]int{{0}})); err == nil {
		t.Fatal("Concat accepted mismatched link sets")
	}
}
