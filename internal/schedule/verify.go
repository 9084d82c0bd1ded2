// SINR verification engines. VerifySINRDelta routes through the fast engine
// (internal/sinr.Engine: cached gains, grid-aggregated far-field intervals,
// exact fallback) with slots verified across the shared internal/par worker
// pool; VerifySINRNaive in schedule.go retains the exact O(m²)-per-slot
// oracle. Both return identical margins (up to floating-point accumulation
// order, ≲1e-12 relative) and identical error conditions, messages, and
// slot ordering: the fast path evaluates slots in parallel but reduces the
// results in slot order, reproducing the naive path's first-infeasible-slot
// semantics exactly.

package schedule

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"aggrate/internal/lru"
	"aggrate/internal/par"
	"aggrate/internal/sinr"
)

// Verification engine names, as accepted by the experiment layer and the
// CLI --verify-engine flag.
const (
	// EngineFast is the near-linear engine (the default).
	EngineFast = "fast"
	// EngineNaive is the exact O(m²)-per-slot reference path.
	EngineNaive = "naive"
)

// Engines lists the verification engines in canonical order.
func Engines() []string { return []string{EngineFast, EngineNaive} }

// VerifyStats reports what a fast verification run did: the engine's work
// counters plus the wall-clock split between power assignment (where global
// power control pays its per-slot Solve) and margin computation.
type VerifyStats struct {
	// Slots counts the non-empty slots examined.
	Slots int
	// ReusedSlots counts slots whose margin came from a VerifyCache hit
	// (identical membership and powers as a previously verified slot), so
	// no engine work was performed for them.
	ReusedSlots int
	// ReusedGrids counts slots whose margin was recomputed but whose built
	// sender grid + pyramid came from the cache (identical membership as a
	// previously verified slot), so the engine skipped buildGrid. Margin
	// cache hits do not count here — a reused margin needs no grid at all.
	ReusedGrids int
	// Engine aggregates the fast engine's work counters over the slots
	// actually computed (cache hits contribute nothing).
	Engine sinr.EngineStats
	// PowerSec is the wall-clock spent in the PowerFunc, summed over slots.
	PowerSec float64
	// MarginSec is the wall-clock spent computing slot margins, summed over
	// slots. Both sums add per-slot times, so under parallel verification
	// they can exceed the elapsed wall-clock by up to the worker count.
	MarginSec float64
}

// slotKey is the content hash of one slot: its size plus two independent
// order-insensitive 64-bit mixes over the members' (global link index,
// power bits) pairs. Slot membership is a set and the experiment layer's
// power functions are content-determined, so two slots with equal keys are
// (collision aside, ~2⁻¹²⁸) the same verification problem over the same
// link set.
type slotKey struct {
	sum, xor uint64
	m        int32
}

// mix64 is the splitmix64 finalizer, a cheap full-avalanche 64-bit mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashSlot returns the order-insensitive content key of (slot, powers).
// Commutative accumulation (sum and rotated xor of per-member mixes) makes
// the key independent of member order, though every scheduler strategy
// emits slots in increasing link-index order anyway (the stable-slot-order
// contract tested in internal/scheduler).
func hashSlot(slot []int, powers []float64) slotKey {
	var k slotKey
	k.m = int32(len(slot))
	for i, g := range slot {
		h := mix64(uint64(g)*0x9e3779b97f4a7c15 ^ math.Float64bits(powers[i]))
		k.sum += h
		k.xor ^= h<<(h&63) | h>>(64-h&63)
	}
	return k
}

// hashSlotMembers returns the order-insensitive membership key of a slot:
// hashSlot with the power bits left out. Two slots with equal membership
// keys cover the same link set, possibly under different powers — exactly
// the situation where the built sender grid (geometry-determined structure,
// power-determined masses) can be refreshed instead of rebuilt.
func hashSlotMembers(slot []int) slotKey {
	var k slotKey
	k.m = int32(len(slot))
	for _, g := range slot {
		h := mix64(uint64(g) * 0x9e3779b97f4a7c15)
		k.sum += h
		k.xor ^= h<<(h&63) | h>>(64-h&63)
	}
	return k
}

// DefaultVerifyCacheBytes is the byte budget NewVerifyCache installs:
// generous enough to hold the margins plus the built slot grids of an
// n=1e6 schedule, small enough that a long-lived service process cannot
// grow without bound across escalation chains.
const DefaultVerifyCacheBytes = 256 << 20

// vcKey tags a slot key with its tier: a margin (keyed by slot content,
// membership + powers) or a built slot grid (keyed by membership alone).
type vcKey struct {
	slotKey
	grid bool
}

// vcEntry is one cache line: a margin or, in the grid tier, a built grid.
type vcEntry struct {
	margin float64
	g      *sinr.SlotGrid
}

// VerifyCache memoizes slot verification work by content key, enabling the
// incremental VerifySINRDelta path: re-verifying a schedule that shares
// slots with a previously verified one (γ-escalation retries, the service's
// re-verify hook, delta re-checks after slot edits) recomputes only the
// slots whose membership or powers actually changed. It holds two tiers:
// exact margins keyed by full slot content (membership + powers), and built
// sender grids + pyramids keyed by membership alone — so a slot that kept
// its links but changed powers skips the grid build and only refreshes the
// masses. Both tiers share one LRU bounded by a byte budget; margins are
// charged vcMarginSize bytes each, grids their measured SizeBytes on top,
// and the least-recently-used entries of either kind are evicted once the
// budget is exceeded.
//
// A cache is only meaningful across verifications over the same link set
// and SINR params it was created for; VerifySINRDelta falls back to a full
// recompute (never a wrong answer) when the params disagree. The caller
// must not reuse a cache across different link sets — keys are global link
// indices, so equal keys would alias different geometry. Cached grids are
// immutable: the engine refreshes into a fresh grid rather than mutating a
// cached one, so read-only concurrent lookups during a fan-out are safe.
type VerifyCache struct {
	p     sinr.Params
	lines *lru.Cache[vcKey, vcEntry]
}

// vcMarginSize approximates the resident cost of one margin entry (struct,
// map bucket share, pointer overhead) against the byte budget.
const vcMarginSize = 112

// NewVerifyCache returns an empty cache bound to the given params, with the
// default byte budget.
func NewVerifyCache(p sinr.Params) *VerifyCache {
	return NewVerifyCacheBytes(p, DefaultVerifyCacheBytes)
}

// NewVerifyCacheBytes returns an empty cache bound to the given params with
// an explicit byte budget. A budget ≤ 0 disables grid retention and keeps
// only the margin most recently inserted — still correct, just cold.
func NewVerifyCacheBytes(p sinr.Params, budget int64) *VerifyCache {
	return &VerifyCache{p: p, lines: lru.New[vcKey, vcEntry](math.MaxInt, budget)}
}

// Len reports the number of cached slot margins.
func (vc *VerifyCache) Len() int { return vc.count(false) }

// GridLen reports the number of cached built slot grids.
func (vc *VerifyCache) GridLen() int { return vc.count(true) }

func (vc *VerifyCache) count(grid bool) int {
	if vc == nil {
		return 0
	}
	n := 0
	for _, k := range vc.lines.Keys() {
		if k.grid == grid {
			n++
		}
	}
	return n
}

// Bytes reports the cache's current charge against its byte budget.
func (vc *VerifyCache) Bytes() int64 {
	if vc == nil {
		return 0
	}
	return vc.lines.Bytes()
}

// InvalidateMargins drops every cached margin while keeping the built slot
// grids. A following verification of the same schedule recomputes every
// margin with the grid-build stage skipped — the grid-warm path that
// escalation retries with changed powers take per slot, exposed whole for
// re-verification sweeps, the warm-verify benchmark and the pipeline's
// work-counter test.
func (vc *VerifyCache) InvalidateMargins() {
	if vc == nil {
		return
	}
	for _, k := range vc.lines.Keys() {
		if !k.grid {
			vc.lines.Remove(k)
		}
	}
}

// VerifySINRDelta checks that every slot of the schedule is SINR-feasible
// under the powers provided by pf (which must be safe for concurrent use),
// via the fast engine. It returns the worst slot margin (min over slots of
// min over links of SINR/β), the engine diagnostics, and an error naming
// the first infeasible slot, if any — the same contract, margins, and error
// messages as VerifySINRNaive. A cancelled ctx stops the per-slot fan-out
// within one slot per worker and returns (0, partial stats, ctx.Err()),
// never a verdict.
//
// vc makes re-verification incremental: slots whose content key
// (membership + powers) is in vc reuse the cached exact margin and skip the
// engine; fresh margins are added afterwards, also on infeasible schedules,
// so the next γ-escalation attempt reuses every slot it kept. A nil vc, or
// one bound to other params, means a full recompute. Results are identical
// with and without a cache, because cached values are the engine's own
// exact margins. vc must not be shared between concurrent verifications.
func (s *Schedule) VerifySINRDelta(ctx context.Context, p sinr.Params, pf PowerFunc, vc *VerifyCache) (float64, VerifyStats, error) {
	var st VerifyStats
	if vc != nil && vc.p != p {
		vc = nil
	}
	eng := sinr.NewEngine(p, s.Links)
	type slotOut struct {
		margin              float64
		stats               sinr.EngineStats
		powerSec, marginSec float64
		pfErr, mErr         error
		key, gkey           slotKey
		// grid is the built (or refreshed) slot grid the engine retained for
		// this slot, to be inserted into the cache after the fan-out.
		grid *sinr.SlotGrid
		// ran marks slots a worker actually examined — the cancelled-path
		// stats must not count slots that were never dispatched.
		ran bool
		// reused marks margin cache hits (no engine work, nothing to
		// re-insert); gridReused marks grid cache hits under a margin miss.
		reused, gridReused bool
	}
	outs := make([]slotOut, len(s.Slots))
	// failCut is the lowest slot index so far found infeasible (or errored).
	// The naive oracle stops at the first bad slot, and the reduction below
	// replicates that — slots beyond the cut can never influence the result,
	// so workers skip them. On an infeasible schedule (every γ-escalation
	// attempt but the last) this turns a full verification pass into one that
	// stops shortly after the first bad slot.
	var failCut atomic.Int64
	failCut.Store(int64(len(s.Slots)))
	// Block size 1: slot sizes are heavily skewed (first-fit slot 0 is the
	// largest), so fine-grained stealing is what balances the pool.
	err := par.ForBlocksCtx(ctx, len(s.Slots), 1, func(next func() (int, int, bool)) {
		sc := sinr.NewEngineScratch()
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for k := lo; k < hi; k++ {
				slot := s.Slots[k]
				if len(slot) == 0 || int64(k) > failCut.Load() {
					continue
				}
				o := &outs[k]
				o.ran = true
				t0 := time.Now()
				powers, err := pf(k, slot)
				o.powerSec = time.Since(t0).Seconds()
				if err != nil {
					o.pfErr = err
					lowerCut(&failCut, int64(k))
					continue
				}
				if vc != nil {
					// The cache is only peeked during the fan-out (recency
					// updates and inserts happen after it, in slot order).
					o.key = hashSlot(slot, powers)
					if e, ok := vc.lines.Peek(vcKey{o.key, false}); ok {
						o.margin, o.reused = e.margin, true
						if o.margin < 1 {
							lowerCut(&failCut, int64(k))
						}
						continue
					}
					// Margin miss: look for a built grid under the slot's
					// membership key and verify grid-warm, retaining the
					// built/refreshed grid for insertion after the fan-out.
					o.gkey = hashSlotMembers(slot)
					cached, _ := vc.lines.Peek(vcKey{o.gkey, true})
					cg := cached.g
					t0 = time.Now()
					o.margin, o.grid, o.gridReused, o.mErr =
						eng.MarginSlotGrid(slot, powers, sc, &o.stats, cg, true)
					o.marginSec = time.Since(t0).Seconds()
					if o.mErr != nil || o.margin < 1 {
						lowerCut(&failCut, int64(k))
					}
					continue
				}
				t0 = time.Now()
				o.margin, o.mErr = eng.MarginSlot(slot, powers, sc, &o.stats)
				o.marginSec = time.Since(t0).Seconds()
				if o.mErr != nil || o.margin < 1 {
					lowerCut(&failCut, int64(k))
				}
			}
		}
	})

	// Record freshly computed margins and retained grids — on every exit
	// path, in slot order (deterministic LRU recency). Caching the feasible
	// slots of an infeasible schedule is the point of the γ-escalation
	// reuse: the next attempt skips every slot it kept. Reused entries are
	// touched so eviction tracks actual access order.
	if vc != nil {
		for k := range outs {
			o := &outs[k]
			if !o.ran || o.pfErr != nil {
				continue
			}
			if o.reused {
				vc.lines.Get(vcKey{o.key, false})
				continue
			}
			if o.mErr == nil {
				vc.lines.Add(vcKey{o.key, false}, vcEntry{margin: o.margin}, vcMarginSize)
			}
			if o.grid != nil {
				vc.lines.Add(vcKey{o.gkey, true}, vcEntry{g: o.grid}, o.grid.SizeBytes()+vcMarginSize)
			}
		}
	}

	// tally adds one examined slot's work to st. Both exits below tally in
	// slot order, so the stats are deterministic.
	tally := func(o *slotOut) {
		st.Slots++
		if o.reused {
			st.ReusedSlots++
		}
		if o.gridReused {
			st.ReusedGrids++
		}
		st.Engine.Add(o.stats)
		st.PowerSec += o.powerSec
		st.MarginSec += o.marginSec
	}
	if err != nil {
		// Cancelled mid-fan-out: an unknown subset of slots never ran, so the
		// zero-valued outs must not be read as margins. Partial stats cover
		// only the slots a worker actually examined (work performed).
		for k := range outs {
			if outs[k].ran {
				tally(&outs[k])
			}
		}
		return 0, st, err
	}

	// Deterministic reduction in slot order, replicating the naive path's
	// early-return values: a power/margin error at the first offending slot
	// returns 0; the first infeasible slot returns the min margin over the
	// slots up to and including it. Stats accumulate in the same order, so
	// they never depend on which slots beyond the cut a worker happened to
	// finish before the cut moved.
	worst := math.Inf(1)
	for k := range outs {
		if len(s.Slots[k]) == 0 {
			continue
		}
		o := &outs[k]
		tally(o)
		if o.pfErr != nil {
			return 0, st, fmt.Errorf("schedule: slot %d power assignment: %w", k, o.pfErr)
		}
		if o.mErr != nil {
			return 0, st, fmt.Errorf("schedule: slot %d: %w", k, o.mErr)
		}
		if o.margin < worst {
			worst = o.margin
		}
		if o.margin < 1 {
			return worst, st, fmt.Errorf("schedule: slot %d infeasible (margin %.4g < 1)", k, o.margin)
		}
	}
	return worst, st, nil
}

// lowerCut lowers cut to k if k is smaller (atomic monotone min).
func lowerCut(cut *atomic.Int64, k int64) {
	for {
		cur := cut.Load()
		if k >= cur || cut.CompareAndSwap(cur, k) {
			return
		}
	}
}
