package schedule

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/sinr"
)

// randInstance returns n short links uniform in a side×side square plus a
// round-robin coloring schedule over k slots (so slot sizes are ~n/k and
// exercise the engine's grid path for small k).
func randInstance(n, k int, side, lenDiv float64, seed int64) (*Schedule, []float64) {
	r := rand.New(rand.NewSource(seed))
	links := make([]geom.Link, n)
	powers := make([]float64, n)
	colors := make([]int, n)
	for i := range links {
		s := geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
		d := geom.Point{X: (r.Float64() - 0.5) * side / lenDiv, Y: (r.Float64() - 0.5) * side / lenDiv}
		links[i] = geom.NewLink(2*i, 2*i+1, s, s.Add(d))
		powers[i] = 0.5 + r.Float64()*4
		colors[i] = i % k
	}
	s, err := FromColoring(links, colors)
	if err != nil {
		panic(err)
	}
	return s, powers
}

// checkVerifyParity runs both engines and demands identical margins (1e-9
// relative, +Inf exact) and identical error presence and message.
func checkVerifyParity(t *testing.T, s *Schedule, p sinr.Params, pf PowerFunc) {
	t.Helper()
	fast, _, ferr := s.VerifySINRDelta(context.Background(), p, pf, nil)
	naive, nerr := s.VerifySINRNaive(p, pf)
	if (ferr == nil) != (nerr == nil) {
		t.Fatalf("error mismatch: fast=%v naive=%v", ferr, nerr)
	}
	if ferr != nil && ferr.Error() != nerr.Error() {
		t.Fatalf("error text mismatch:\nfast:  %v\nnaive: %v", ferr, nerr)
	}
	if math.IsInf(fast, 1) || math.IsInf(naive, 1) {
		if fast != naive {
			t.Fatalf("margin mismatch: fast=%g naive=%g", fast, naive)
		}
		return
	}
	if rel := math.Abs(fast-naive) / math.Max(math.Abs(naive), 1e-300); rel > 1e-9 {
		t.Fatalf("margin mismatch: fast=%.17g naive=%.17g (rel %.3g)", fast, naive, rel)
	}
}

// TestVerifyFastMatchesNaive sweeps slot shapes: sparse feasible schedules,
// dense infeasible ones (error parity, including the reported slot and the
// %.4g margin in the message), multicolor schedules, and empty slots.
func TestVerifyFastMatchesNaive(t *testing.T) {
	p := sinr.DefaultParams()
	// Sparse: wide area, many slots → feasible.
	s, powers := randInstance(400, 25, 50000, 30, 1)
	checkVerifyParity(t, s, p, FixedPower(powers))
	// Dense: everything in few slots → some slot infeasible. The slots
	// (300 links each) are above the engine's exact-path cutoff.
	s, powers = randInstance(600, 2, 280, 30, 2)
	checkVerifyParity(t, s, p, FixedPower(powers))
	// Multicolor with duplicate appearances and an empty slot.
	s, powers = randInstance(120, 6, 30000, 30, 3)
	s.Slots = append(s.Slots, nil, append([]int(nil), s.Slots[0]...))
	checkVerifyParity(t, s, p, FixedPower(powers))
	// Singleton slots only: +Inf margin under zero noise.
	links := []geom.Link{
		geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1}),
		geom.NewLink(2, 3, geom.Point{X: 10}, geom.Point{X: 11}),
	}
	s2, _ := FromColoring(links, []int{0, 1})
	checkVerifyParity(t, s2, p, FixedPower([]float64{1, 1}))
}

// TestVerifyPowerFuncError: a failing PowerFunc must surface with the same
// slot attribution and zero margin on both paths.
func TestVerifyPowerFuncError(t *testing.T) {
	s, powers := randInstance(60, 4, 10000, 30, 4)
	bad := func(slot int, linkIdx []int) ([]float64, error) {
		if slot == 2 {
			return nil, fmt.Errorf("boom")
		}
		return FixedPower(powers)(slot, linkIdx)
	}
	checkVerifyParity(t, s, sinr.DefaultParams(), bad)
	if _, _, err := s.VerifySINRDelta(context.Background(), sinr.DefaultParams(), bad, nil); err == nil {
		t.Fatal("VerifySINRDelta swallowed the power error")
	}
}

// TestVerifyBadPower: non-positive powers error identically through both
// engines (message text included).
func TestVerifyBadPower(t *testing.T) {
	s, powers := randInstance(80, 4, 10000, 30, 5)
	powers[17] = 0
	checkVerifyParity(t, s, sinr.DefaultParams(), FixedPower(powers))
}

// TestVerifyStatsPlumbing: the fast path must report slot counts and the
// naive-pair total matching the schedule shape.
func TestVerifyStatsPlumbing(t *testing.T) {
	s, powers := randInstance(200, 8, 50000, 400, 6)
	_, st, err := s.VerifySINRDelta(context.Background(), sinr.DefaultParams(), FixedPower(powers), nil)
	if err != nil {
		t.Fatalf("VerifySINRDelta: %v", err)
	}
	if st.Slots != 8 {
		t.Fatalf("Slots = %d, want 8", st.Slots)
	}
	wantPairs := int64(0)
	for _, slot := range s.Slots {
		m := int64(len(slot))
		wantPairs += m * (m - 1)
	}
	if st.Engine.NaivePairs != wantPairs {
		t.Fatalf("NaivePairs = %d, want %d", st.Engine.NaivePairs, wantPairs)
	}
	if st.Engine.Links != 200 {
		t.Fatalf("Links = %d, want 200", st.Engine.Links)
	}
	if st.MarginSec <= 0 {
		t.Fatal("MarginSec not measured")
	}
}

// BenchmarkVerify compares the two verification paths end-to-end on one
// schedule (18 slots over 6000 links), GOMAXPROCS-bound.
func BenchmarkVerify(b *testing.B) {
	s, powers := randInstance(6000, 18, 200000, 2000, 7)
	p := sinr.DefaultParams()
	pf := FixedPower(powers)
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.VerifySINRDelta(context.Background(), p, pf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.VerifySINRNaive(p, pf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
