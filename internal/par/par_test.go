package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForCoversAllIndices: every index visited exactly once, any n.
func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		visits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&visits[i], 1) })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestForBlocksCoversAllIndices: the shared cursor hands out every block
// exactly once across workers.
func TestForBlocksCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		visits := make([]int32, n)
		ForBlocks(n, 64, func(next func() (int, int, bool)) {
			for lo, hi, ok := next(); ok; lo, hi, ok = next() {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestNestedDoesNotDeadlock: For inside ForBlocks inside For must complete
// even with the global slot pool fully contended — the calling goroutine
// always makes progress without a slot.
func TestNestedDoesNotDeadlock(t *testing.T) {
	var total atomic.Int64
	For(8, func(i int) {
		ForBlocks(100, 10, func(next func() (int, int, bool)) {
			for lo, hi, ok := next(); ok; lo, hi, ok = next() {
				For(hi-lo, func(int) { total.Add(1) })
			}
		})
	})
	if got := total.Load(); got != 800 {
		t.Fatalf("nested total = %d, want 800", got)
	}
}

// TestForCtxCompletesUncancelled: with a live context ForBlocksCtx is
// exactly ForBlocks — every index visited once, nil error.
func TestForCtxCompletesUncancelled(t *testing.T) {
	var count atomic.Int64
	if err := ForBlocksCtx(context.Background(), 100, 7, func(next func() (int, int, bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			count.Add(int64(hi - lo))
		}
	}); err != nil || count.Load() != 100 {
		t.Fatalf("ForBlocksCtx: err=%v count=%d, want nil and 100", err, count.Load())
	}
}

// TestForCtxPreCancelled: an already-cancelled context runs nothing and
// reports the context error.
func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := ForBlocksCtx(ctx, 50, 4, func(next func() (int, int, bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			ran = true
			_ = lo + hi
		}
	}); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("ForBlocksCtx on cancelled ctx: err=%v ran=%v", err, ran)
	}
}

// TestForBlocksCtxStopsMidway: cancelling from inside a block stops the
// cursor — the remaining blocks are never handed out.
func TestForBlocksCtxStopsMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var blocks atomic.Int64
	err := ForBlocksCtx(ctx, 1000, 1, func(next func() (int, int, bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			_ = lo + hi
			if blocks.Add(1) == 3 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every active worker may finish the block it holds, but no new blocks
	// are dispatched after the cancel; with the worker pool bounded by
	// GOMAXPROCS this stays far below the full range.
	if got := blocks.Load(); got >= 1000 {
		t.Fatalf("all %d blocks ran despite mid-flight cancel", got)
	}
}

// TestForBlocksBadBlock: non-positive block sizes are clamped, not looped
// on forever.
func TestForBlocksBadBlock(t *testing.T) {
	var count atomic.Int64
	ForBlocks(5, 0, func(next func() (lo, hi int, ok bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			count.Add(int64(hi - lo))
		}
	})
	if got := count.Load(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}
