package sinr

import (
	"math"
	"testing"
)

// TestMarginSlotGridReuse pins the persistent-slot-structure contract:
// margins are bit-identical across cold build, direct reuse, power-refresh
// reuse, and a rejected (permuted-order) reuse, and the reused flag reports
// exactly when buildGrid was skipped.
func TestMarginSlotGridReuse(t *testing.T) {
	const m = 600 // above the exact-path cutoff: the slot builds a grid
	p := DefaultParams()
	links := randLinks(m, 40000, 31)
	e := NewEngine(p, links)
	sc := NewEngineScratch()
	idx := fullSlot(m)
	powers := randPowers(m, 32)

	var st EngineStats
	cold, grid, reused, err := e.MarginSlotGrid(idx, powers, sc, &st, nil)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if reused || grid == nil {
		t.Fatalf("cold pass: reused=%v grid=%v", reused, grid != nil)
	}

	// Direct reuse: same membership order, same powers.
	warm, g2, reused, err := e.MarginSlotGrid(idx, powers, sc, &st, grid)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !reused || g2 != grid {
		t.Fatalf("direct reuse not taken: reused=%v same_grid=%v", reused, g2 == grid)
	}
	if warm != cold {
		t.Fatalf("direct-reuse margin %.17g != cold %.17g", warm, cold)
	}

	// Power-refresh reuse: same membership, different powers. The refreshed
	// grid must be a fresh object (the cached one stays immutable) and the
	// margin must match a from-scratch build with the new powers.
	powers2 := append([]float64(nil), powers...)
	for i := range powers2 {
		powers2[i] *= 1.0625
	}
	refreshed, g3, reused, err := e.MarginSlotGrid(idx, powers2, sc, &st, grid)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if !reused || g3 == grid || g3 == nil {
		t.Fatalf("refresh reuse not taken: reused=%v fresh_grid=%v", reused, g3 != grid && g3 != nil)
	}
	scratch2, err := e.marginSlot(idx, powers2, NewEngineScratch(), &st)
	if err != nil {
		t.Fatalf("scratch rebuild: %v", err)
	}
	if refreshed != scratch2 {
		t.Fatalf("refreshed margin %.17g != scratch %.17g", refreshed, scratch2)
	}

	// Permuted membership order: the order hash rejects the grid (slot order
	// defines the exact-path accumulation order), forcing a rebuild.
	perm := append([]int(nil), idx...)
	permPow := append([]float64(nil), powers...)
	perm[0], perm[1] = perm[1], perm[0]
	permPow[0], permPow[1] = permPow[1], permPow[0]
	pm, _, reused, err := e.MarginSlotGrid(perm, permPow, sc, &st, grid)
	if err != nil {
		t.Fatalf("permuted: %v", err)
	}
	if reused {
		t.Fatalf("permuted slot order reused a stale grid")
	}
	ps, err := e.marginSlot(perm, permPow, NewEngineScratch(), &st)
	if err != nil {
		t.Fatalf("permuted scratch: %v", err)
	}
	if pm != ps {
		t.Fatalf("permuted margin %.17g != scratch %.17g", pm, ps)
	}
}

// TestSlotGridSizeBytes: the byte accounting the VerifyCache budget relies
// on is positive and grows with slot size.
func TestSlotGridSizeBytes(t *testing.T) {
	p := DefaultParams()
	sizes := []int{engineExactCutoff + 1, 2000}
	var prev int64
	for _, m := range sizes {
		links := randLinks(m, 40000, 33)
		e := NewEngine(p, links)
		var st EngineStats
		_, g, _, err := e.MarginSlotGrid(fullSlot(m), randPowers(m, 34), NewEngineScratch(), &st, nil)
		if err != nil || g == nil {
			t.Fatalf("m=%d: grid=%v err=%v", m, g != nil, err)
		}
		if g.SizeBytes() <= prev {
			t.Fatalf("m=%d: SizeBytes %d not above smaller slot's %d", m, g.SizeBytes(), prev)
		}
		prev = g.SizeBytes()
	}
}

// BenchmarkNearFieldKernel times the symmetric tiled pair kernel (exactAll)
// against the per-row naive-order fallback (exactOne over every row) on the
// same slot — the two must agree bit for bit, and the symmetric kernel is
// the one the benchmark reports as sinr.kernel_ns_per_pair.
func BenchmarkNearFieldKernel(b *testing.B) {
	const m = 2048
	p := DefaultParams()
	links := kernelBenchLinks(m)
	e := NewEngine(p, links)
	sc := NewEngineScratch()
	sc.reserve(m)
	for k, l := range links {
		sc.px[k], sc.py[k] = l.S.X, l.S.Y
		sc.qx[k], sc.qy[k] = l.R.X, l.R.Y
		sc.pw[k] = 1
		sc.sig[k] = 1 / e.lenA[k]
	}
	var st EngineStats
	b.Run("symmetric", func(b *testing.B) {
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc += e.exactAll(sc, m, &st)
		}
		if math.IsNaN(acc) {
			b.Fatal("NaN margin")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(m)*float64(m-1)), "ns/pair")
	})
	b.Run("per-row", func(b *testing.B) {
		acc := 0.0
		for i := 0; i < b.N; i++ {
			worst := math.Inf(1)
			for k := 0; k < m; k++ {
				if mg := e.exactOne(sc, m, k); mg < worst {
					worst = mg
				}
			}
			acc += worst
		}
		if math.IsNaN(acc) {
			b.Fatal("NaN margin")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(m)*float64(m-1)), "ns/pair")
	})
}

// BenchmarkMarginSlotWarm: cold slot evaluation (buildGrid every time)
// against the persistent-structure warm path (grid offered back).
func BenchmarkMarginSlotWarm(b *testing.B) {
	const m = 20000
	p := DefaultParams()
	links := randLinks(m, 200000, 35)
	e := NewEngine(p, links)
	idx := fullSlot(m)
	powers := randPowers(m, 36)
	sc := NewEngineScratch()
	var st EngineStats
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := e.MarginSlotGrid(idx, powers, sc, &st, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid-warm", func(b *testing.B) {
		_, grid, _, err := e.MarginSlotGrid(idx, powers, sc, &st, nil)
		if err != nil || grid == nil {
			b.Fatalf("prime: grid=%v err=%v", grid != nil, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, reused, err := e.MarginSlotGrid(idx, powers, sc, &st, grid)
			if err != nil {
				b.Fatal(err)
			}
			if !reused {
				b.Fatal("warm pass rebuilt the grid")
			}
		}
	})
}
