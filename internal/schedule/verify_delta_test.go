package schedule

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"aggrate/internal/geom"
	"aggrate/internal/sinr"
)

// clusterInstance builds links clumped into Gaussian clusters — slot
// neighborhoods are dense, so the engine leans on refinement and exact
// fallback more than the uniform generator does.
func clusterInstance(n, k int, side float64, seed int64) (*Schedule, []float64) {
	r := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, 6)
	for i := range centers {
		centers[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	links := make([]geom.Link, n)
	powers := make([]float64, n)
	colors := make([]int, n)
	for i := range links {
		c := centers[r.Intn(len(centers))]
		s := geom.Point{X: c.X + r.NormFloat64()*side/40, Y: c.Y + r.NormFloat64()*side/40}
		d := geom.Point{X: (r.Float64() - 0.5) * side / 60, Y: (r.Float64() - 0.5) * side / 60}
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

// annulusInstance places senders on a ring band — the far-field pyramid sees
// a hollow mass distribution, a shape the uniform and cluster generators
// never produce.
func annulusInstance(n, k int, radius float64, seed int64) (*Schedule, []float64) {
	r := rand.New(rand.NewSource(seed))
	links := make([]geom.Link, n)
	powers := make([]float64, n)
	colors := make([]int, n)
	for i := range links {
		ang := r.Float64() * 2 * math.Pi
		rad := radius * (0.8 + 0.2*r.Float64())
		s := geom.Point{X: rad * math.Cos(ang), Y: rad * math.Sin(ang)}
		d := geom.Point{X: (r.Float64() - 0.5) * radius / 100, Y: (r.Float64() - 0.5) * radius / 100}
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

// checkDeltaParity verifies s through the warm cache and demands the exact
// same outcome as a from-scratch fast run and the naive oracle: margins to
// 1e-9 relative (bit-equal between delta and scratch-fast, whose arithmetic
// is identical), same error presence and text.
func checkDeltaParity(t *testing.T, s *Schedule, p sinr.Params, pf PowerFunc, vc *VerifyCache) {
	t.Helper()
	dm, _, derr := s.VerifySINRDelta(context.Background(), p, pf, vc)
	fm, _, ferr := s.VerifySINRDelta(context.Background(), p, pf, nil)
	nm, nerr := s.VerifySINRNaive(p, pf)
	if (derr == nil) != (ferr == nil) || (derr == nil) != (nerr == nil) {
		t.Fatalf("error mismatch: delta=%v fast=%v naive=%v", derr, ferr, nerr)
	}
	// Delta and scratch-fast share arithmetic: identical text. Naive sums in
	// a different order, so it is held to presence plus the numeric checks.
	if derr != nil && derr.Error() != ferr.Error() {
		t.Fatalf("error text mismatch:\ndelta: %v\nfast:  %v", derr, ferr)
	}
	if dm != fm {
		// Cached margins are the engine's own outputs for identical slot
		// content, so the delta path must be bit-identical to scratch-fast.
		t.Fatalf("delta margin %.17g != scratch fast %.17g", dm, fm)
	}
	if math.IsInf(fm, 1) != math.IsInf(nm, 1) {
		t.Fatalf("margin mismatch: fast=%g naive=%g", fm, nm)
	}
	if !math.IsInf(nm, 1) && nm != 0 {
		if rel := math.Abs(fm-nm) / math.Max(math.Abs(nm), 1e-300); rel > 1e-9 {
			t.Fatalf("margin mismatch: fast=%.17g naive=%.17g (rel %.3g)", fm, nm, rel)
		}
	}
}

// TestVerifyDeltaAfterMutations is the incremental-verification property
// test: verify a schedule once into a cache, mutate it — drop a link from a
// slot, change one power, re-partition the links as a γ-escalation rebuild
// would — and demand that re-verifying through the warm cache matches a
// from-scratch fast run bit-for-bit and the naive oracle to 1e-9, on
// uniform, cluster, and annulus geometries, feasible or not.
func TestVerifyDeltaAfterMutations(t *testing.T) {
	p := sinr.DefaultParams()
	type mk struct {
		name string
		gen  func(seed int64) (*Schedule, []float64)
	}
	makers := []mk{
		{"uniform", func(seed int64) (*Schedule, []float64) { return randInstance(300, 12, 50000, 30, seed) }},
		{"cluster", func(seed int64) (*Schedule, []float64) { return clusterInstance(300, 12, 50000, seed) }},
		{"annulus", func(seed int64) (*Schedule, []float64) { return annulusInstance(300, 12, 30000, seed) }},
		// Dense variant: infeasible slots exercise the failCut path and
		// caching of feasible slots from failed schedules.
		{"uniform-dense", func(seed int64) (*Schedule, []float64) { return randInstance(240, 2, 300, 30, seed) }},
	}
	for _, m := range makers {
		for seed := int64(1); seed <= 3; seed++ {
			s, powers := m.gen(seed)
			vc := NewVerifyCache(p)
			pf := FixedPower(powers)
			// Cold pass populates the cache (verdict itself checked by parity).
			checkDeltaParity(t, s, p, pf, vc)

			// Unchanged re-verify: every slot must come from the cache.
			_, st, _ := s.VerifySINRDelta(context.Background(), p, pf, vc)
			if st.ReusedSlots != st.Slots || st.Slots == 0 {
				// An infeasible schedule stops at the first bad slot, so only
				// the examined prefix is reused; demand full reuse only when
				// the schedule verified cleanly.
				if _, _, err := s.VerifySINRDelta(context.Background(), p, pf, nil); err == nil {
					t.Fatalf("%s/%d: unchanged re-verify reused %d of %d slots",
						m.name, seed, st.ReusedSlots, st.Slots)
				}
			}

			// Mutation 1: drop a link from the largest slot.
			big := 0
			for k := range s.Slots {
				if len(s.Slots[k]) > len(s.Slots[big]) {
					big = k
				}
			}
			drop := *s
			drop.Slots = append([][]int(nil), s.Slots...)
			drop.Slots[big] = append([]int(nil), s.Slots[big][1:]...)
			checkDeltaParity(t, &drop, p, pf, vc)

			// Mutation 2: change one power — the touched slots re-verify,
			// everything else reuses.
			powers2 := append([]float64(nil), powers...)
			powers2[7] *= 1.25
			checkDeltaParity(t, s, p, FixedPower(powers2), vc)

			// Mutation 3: re-partition half the links into different slots,
			// as a γ-escalation rebuild would; the unchanged slots still hit.
			colors := make([]int, len(s.Links))
			for i := range colors {
				colors[i] = i % 12
				if i%2 == 0 {
					colors[i] = (i + 5) % 12
				}
			}
			if reb, err := FromColoring(s.Links, colors); err == nil {
				checkDeltaParity(t, reb, p, pf, vc)
			}
		}
	}
}

// TestVerifyDeltaParamsMismatch: a cache bound to different SINR params must
// be ignored (full recompute, correct answer, no reuse reported).
func TestVerifyDeltaParamsMismatch(t *testing.T) {
	p := sinr.DefaultParams()
	s, powers := randInstance(200, 8, 50000, 400, 11)
	pf := FixedPower(powers)
	other := p
	other.Beta *= 2
	vc := NewVerifyCache(other)
	m1, st, err := s.VerifySINRDelta(context.Background(), p, pf, vc)
	if err != nil {
		t.Fatalf("VerifySINRDelta: %v", err)
	}
	if st.ReusedSlots != 0 || vc.Len() != 0 {
		t.Fatalf("mismatched cache used: reused=%d len=%d", st.ReusedSlots, vc.Len())
	}
	m2, _, _ := s.VerifySINRDelta(context.Background(), p, pf, nil)
	if m1 != m2 {
		t.Fatalf("margin %g != scratch %g", m1, m2)
	}
}

// TestVerifyCtxCancelDeterministic pins the pool to one worker and cancels
// from inside the PowerFunc, so the set of examined slots is exactly the
// slot-order prefix up to the cancelling slot. The partial stats must equal
// the slot-order sum over that prefix — the documented determinism contract
// of the cancelled path — and repeat identically across runs.
func TestVerifyCtxCancelDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	s, powers := randInstance(240, 12, 50000, 400, 13)
	p := sinr.DefaultParams()
	// The instance must be feasible: an infeasible slot before cancelAt would
	// move failCut and skip the later slots, so the cancel would never fire.
	if _, _, err := s.VerifySINRDelta(context.Background(), p, FixedPower(powers), nil); err != nil {
		t.Fatalf("precondition: instance not feasible: %v", err)
	}
	const cancelAt = 7
	run := func() (VerifyStats, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		pf := func(slot int, linkIdx []int) ([]float64, error) {
			calls++
			if calls == cancelAt {
				cancel()
			}
			return FixedPower(powers)(slot, linkIdx)
		}
		m, st, err := s.VerifySINRDelta(ctx, p, pf, nil)
		if m != 0 {
			t.Fatalf("cancelled verify returned a margin: %g", m)
		}
		return st, err
	}
	st1, err1 := run()
	if !errors.Is(err1, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err1)
	}
	// With one worker and block size 1, slots are dispatched in slot order;
	// the cancel fires inside slot cancelAt-1's PowerFunc, which still
	// completes, and the fan-out stops at the next block boundary.
	if st1.Slots != cancelAt {
		t.Fatalf("partial stats cover %d slots, want %d", st1.Slots, cancelAt)
	}
	if st1.Engine.Links == 0 || st1.MarginSec <= 0 {
		t.Fatalf("partial stats missing engine work: %+v", st1)
	}
	st2, err2 := run()
	if !errors.Is(err2, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err2)
	}
	// Timing fields are wall-clock; everything else must repeat exactly.
	if st1.Slots != st2.Slots || st1.ReusedSlots != st2.ReusedSlots || st1.Engine != st2.Engine {
		t.Fatalf("cancelled stats not deterministic:\nfirst:  %+v\nsecond: %+v", st1, st2)
	}
}

// FuzzVerifyDelta fuzzes the incremental path against both the from-scratch
// fast engine and the naive oracle, at the default params and at α=2.05 —
// the near-pathological path-loss regime where far-field bounds are at
// their weakest. The seed corpus mirrors the conflict package's known-hard
// shape: a hub of near-zero links next to far-away long ones.
func FuzzVerifyDelta(f *testing.F) {
	f.Add([]byte{12, 0, 0, 1, 0, 0, 100, 100, 5, 252, 16}, uint8(3), false)
	f.Add([]byte{24, 3, 3, 2, 1, 8, 250, 250, 30, 30, 12}, uint8(2), true)
	pathological := []byte{16}
	for i := 0; i < 8; i++ {
		pathological = append(pathological, byte(i%3), 0, 1, 0, 0)
	}
	for i := 0; i < 8; i++ {
		pathological = append(pathological, 100, 100, byte(2+i), 253, 16)
	}
	f.Add(pathological, uint8(4), true)
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8, alpha205 bool) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%24 + 2
		k := int(kRaw)%6 + 1
		links := make([]geom.Link, 0, n)
		powers := make([]float64, 0, n)
		colors := make([]int, 0, n)
		for i := 0; i < n; i++ {
			b := data[1+5*i:]
			if len(b) < 5 {
				break
			}
			sx, sy := float64(int8(b[0])), float64(int8(b[1]))
			scale := math.Ldexp(1, int(b[4]%17)-8) / 8
			s := geom.Point{X: sx, Y: sy}
			r := geom.Point{X: sx + float64(int8(b[2]))*scale, Y: sy + float64(int8(b[3]))*scale}
			links = append(links, geom.NewLink(2*i, 2*i+1, s, r))
			powers = append(powers, 0.25+float64(b[4])/64)
			colors = append(colors, i%k)
		}
		if len(links) < 2 {
			return
		}
		s, err := FromColoring(links, colors)
		if err != nil {
			return
		}
		p := sinr.DefaultParams()
		if alpha205 {
			p.Alpha = 2.05
		}
		pf := FixedPower(powers)
		vc := NewVerifyCache(p)
		for pass := 0; pass < 2; pass++ { // cold, then fully warm
			dm, _, derr := s.VerifySINRDelta(context.Background(), p, pf, vc)
			fm, _, ferr := s.VerifySINRDelta(context.Background(), p, pf, nil)
			nm, nerr := s.VerifySINRNaive(p, pf)
			if (derr == nil) != (ferr == nil) || (derr == nil) != (nerr == nil) {
				t.Fatalf("pass %d error mismatch: delta=%v fast=%v naive=%v", pass, derr, ferr, nerr)
			}
			// Delta and scratch-fast share arithmetic, so their text must be
			// identical. Naive accumulates in a different order; its margin can
			// land on the other side of the %.4g rounding boundary in the error
			// text, so it is held to presence plus the numeric check below.
			if derr != nil && derr.Error() != ferr.Error() {
				t.Fatalf("pass %d error text mismatch:\ndelta: %v\nfast:  %v", pass, derr, ferr)
			}
			if dm != fm {
				t.Fatalf("pass %d delta margin %.17g != fast %.17g", pass, dm, fm)
			}
			if math.IsInf(fm, 1) != math.IsInf(nm, 1) {
				t.Fatalf("pass %d margin mismatch: fast=%g naive=%g", pass, fm, nm)
			}
			if !math.IsInf(nm, 1) && nm != 0 {
				if rel := math.Abs(fm-nm) / math.Max(math.Abs(nm), 1e-300); rel > 1e-9 {
					t.Fatalf("pass %d margin mismatch: fast=%.17g naive=%.17g", pass, fm, nm)
				}
			}
		}
	})
}

// BenchmarkVerifyIncremental measures the second γ-escalation-style pass:
// cold is a from-scratch verification, warm re-verifies the identical
// schedule through the populated cache (pure content-hash lookups).
func BenchmarkVerifyIncremental(b *testing.B) {
	s, powers := randInstance(6000, 18, 200000, 2000, 7)
	p := sinr.DefaultParams()
	pf := FixedPower(powers)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vc := NewVerifyCache(p)
			if _, _, err := s.VerifySINRDelta(context.Background(), p, pf, vc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		vc := NewVerifyCache(p)
		if _, _, err := s.VerifySINRDelta(context.Background(), p, pf, vc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, st, err := s.VerifySINRDelta(context.Background(), p, pf, vc)
			if err != nil {
				b.Fatal(err)
			}
			if st.ReusedSlots != st.Slots {
				b.Fatalf("warm pass recomputed: %d of %d reused", st.ReusedSlots, st.Slots)
			}
			_ = m
		}
	})
}
