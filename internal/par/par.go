// Package par provides the shared parallel-iteration helpers for the
// CPU-bound build phases. A package-global slot pool bounds the number of
// extra worker goroutines across *all* concurrent callers to GOMAXPROCS,
// so nested parallelism — e.g. the experiment batch runner invoking the
// parallel conflict-graph build — degrades gracefully to roughly one
// active goroutine per core instead of multiplying the two pool widths.
//
// Every call also does work on the calling goroutine, so progress never
// depends on slot availability and exhaustion cannot deadlock.
//
// ForBlocksCtx is the one scheduler: a shared cursor hands out blocks and
// stops once the context is done. ForBlocks is it without a context, and
// For is ForBlocks with one block per worker.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// The slot pool is sized once at init. NumCPU (not just the starting
// GOMAXPROCS) is included so callers that raise GOMAXPROCS at runtime —
// e.g. a benchmark sweeping up from a pinned GOMAXPROCS=1 env — actually
// gain workers; ForBlocks still spawns at most GOMAXPROCS-1
// extras per call, so the current setting remains the effective bound.
var slots = make(chan struct{}, max(runtime.GOMAXPROCS(0), runtime.NumCPU()))

// For runs fn(i) for every i in [0, n): ForBlocks with one contiguous
// block of ⌈n/p⌉ indices per worker, p = GOMAXPROCS.
func For(n int, fn func(i int)) {
	p := min(runtime.GOMAXPROCS(0), max(n, 1))
	ForBlocks(n, (n+p-1)/p, func(next func() (lo, hi int, ok bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}
	})
}

// ForBlocks dispatches the blocks [k·block, min((k+1)·block, n)) of the
// range [0, n) to workers pulling from a shared cursor — the right shape
// when per-item cost is uneven and workers carry per-goroutine state
// (allocate it at the top of worker, before the next loop). The calling
// goroutine always runs one worker; up to GOMAXPROCS-1 extras, but never
// more than there are further blocks, join when global slots are free. worker must loop:
//
//	for lo, hi, ok := next(); ok; lo, hi, ok = next() { ... }
func ForBlocks(n, block int, worker func(next func() (lo, hi int, ok bool))) {
	_ = ForBlocksCtx(context.Background(), n, block, worker)
}

// ForBlocksCtx is ForBlocks with cancellation: the shared cursor stops
// handing out blocks once ctx is done, so every worker returns within one
// block of the cancel. Returns ctx.Err() — a non-nil return means an
// unknown suffix of the range was never dispatched.
func ForBlocksCtx(ctx context.Context, n, block int, worker func(next func() (lo, hi int, ok bool))) error {
	if n <= 0 {
		return ctx.Err()
	}
	if block < 1 {
		block = 1
	}
	var cursor atomic.Int64
	next := func() (int, int, bool) {
		if ctx.Err() != nil {
			return 0, 0, false
		}
		lo := int(cursor.Add(int64(block))) - block
		if lo >= n {
			return 0, 0, false
		}
		hi := lo + block
		if hi > n {
			hi = n
		}
		return lo, hi, true
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), (n+block-1)/block) - 1; w > 0; w-- {
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-slots; wg.Done() }()
				worker(next)
			}()
		default:
			w = 0 // pool exhausted; no point polling again
		}
	}
	worker(next)
	wg.Wait()
	return ctx.Err()
}
