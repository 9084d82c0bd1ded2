package schedule

import (
	"context"
	"testing"

	"aggrate/internal/sinr"
)

// TestVerifyCacheGridTier: the cache's second tier keeps built slot grids
// keyed by membership alone. Dropping the margins (the escalation-retry
// shape: same membership, new powers) must re-verify every slot with the
// grid build answered from the cache, bit-identical to a cold run.
func TestVerifyCacheGridTier(t *testing.T) {
	// k=4 slots of ~500 links each: well above the exact-path cutoff, so
	// every slot builds a grid worth retaining.
	s, powers := randInstance(2000, 4, 200000, 2000, 21)
	p := sinr.DefaultParams()
	pf := FixedPower(powers)
	pool := NewVerifyPool(DefaultVerifyCacheBytes)
	vc := pool.Cache(p)

	cold, st, err := s.VerifySINRDelta(context.Background(), p, pf, vc)
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	if st.ReusedGrids != 0 {
		t.Fatalf("cold verify reported %d reused grids", st.ReusedGrids)
	}
	if vc.Len() != len(s.Slots) || vc.GridLen() != len(s.Slots) {
		t.Fatalf("cold cache: %d margins, %d grids, want %d of each",
			vc.Len(), vc.GridLen(), len(s.Slots))
	}
	if pool.Bytes() <= 0 {
		t.Fatalf("pool reports %d bytes after retaining grids", pool.Bytes())
	}

	vc.InvalidateMargins()
	if vc.Len() != 0 || vc.GridLen() != len(s.Slots) {
		t.Fatalf("after InvalidateMargins: %d margins, %d grids", vc.Len(), vc.GridLen())
	}
	warm, st, err := s.VerifySINRDelta(context.Background(), p, pf, vc)
	if err != nil {
		t.Fatalf("grid-warm verify: %v", err)
	}
	if warm != cold {
		t.Fatalf("grid-warm margin %.17g != cold %.17g", warm, cold)
	}
	if st.ReusedSlots != 0 || st.ReusedGrids != st.Slots || st.Slots == 0 {
		t.Fatalf("grid-warm stats: reused_slots=%d reused_grids=%d slots=%d",
			st.ReusedSlots, st.ReusedGrids, st.Slots)
	}

	// Changed powers, same membership: margin misses, grid still hits.
	powers2 := append([]float64(nil), powers...)
	for i := range powers2 {
		powers2[i] *= 1.125
	}
	pf2 := FixedPower(powers2)
	m2, st, err := s.VerifySINRDelta(context.Background(), p, pf2, vc)
	if err != nil {
		t.Fatalf("power-changed verify: %v", err)
	}
	if st.ReusedGrids != st.Slots {
		t.Fatalf("power-changed pass reused %d of %d grids", st.ReusedGrids, st.Slots)
	}
	f2, _, err := s.VerifySINRDelta(context.Background(), p, pf2, nil)
	if err != nil {
		t.Fatalf("scratch fast: %v", err)
	}
	if m2 != f2 {
		t.Fatalf("power-changed grid-warm margin %.17g != scratch %.17g", m2, f2)
	}
}

// TestVerifyCacheByteBudget: the cache grows to its contents on a generous
// budget and evicts LRU entries down to the budget on a tight one, without
// ever affecting verification results.
func TestVerifyCacheByteBudget(t *testing.T) {
	// k=8 slots of 500 links each, above the exact-path cutoff, so every
	// slot retains a grid for the budget to evict.
	s, powers := randInstance(4000, 8, 200000, 2000, 22)
	p := sinr.DefaultParams()
	pf := FixedPower(powers)

	bigPool := NewVerifyPool(1 << 30)
	big := bigPool.Cache(p)
	cold, _, err := s.VerifySINRDelta(context.Background(), p, pf, big)
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	full := bigPool.Bytes()
	if full <= 0 || big.GridLen() != len(s.Slots) {
		t.Fatalf("generous budget: %d bytes, %d grids", full, big.GridLen())
	}

	// A budget sized for roughly half the retained state forces eviction.
	budget := full / 2
	smallPool := NewVerifyPool(budget)
	small := smallPool.Cache(p)
	m, _, err := s.VerifySINRDelta(context.Background(), p, pf, small)
	if err != nil {
		t.Fatalf("tight-budget verify: %v", err)
	}
	if m != cold {
		t.Fatalf("tight-budget margin %.17g != cold %.17g", m, cold)
	}
	if smallPool.Bytes() > budget {
		t.Fatalf("cache holds %d bytes over its %d budget", smallPool.Bytes(), budget)
	}
	if small.GridLen() >= len(s.Slots) {
		t.Fatalf("tight budget evicted nothing: %d grids of %d slots",
			small.GridLen(), len(s.Slots))
	}

	// Eviction only sheds reuse, never correctness: a re-verify through the
	// partially-evicted cache still matches bit for bit.
	m2, _, err := s.VerifySINRDelta(context.Background(), p, pf, small)
	if err != nil {
		t.Fatalf("re-verify through evicted cache: %v", err)
	}
	if m2 != cold {
		t.Fatalf("evicted-cache margin %.17g != cold %.17g", m2, cold)
	}

	// Degenerate budget: a single retained grid may exceed it; the cache
	// must keep serving (head entry is never evicted) and stay tiny.
	tiny := NewVerifyPool(1).Cache(p)
	if m3, _, err := s.VerifySINRDelta(context.Background(), p, pf, tiny); err != nil || m3 != cold {
		t.Fatalf("tiny-budget verify: m=%v err=%v", m3, err)
	}
	if tiny.GridLen() > 1 || tiny.Len() > 1 {
		t.Fatalf("tiny budget retained %d grids, %d margins", tiny.GridLen(), tiny.Len())
	}
}
