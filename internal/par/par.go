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
// ForCtx and ForBlocksCtx are the cancellation-aware variants: they check
// ctx.Err() at chunk boundaries, stop handing out further work once the
// context is done, and report the context error. For and ForBlocks remain
// the unconditional entry points for callers with nothing to cancel.
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
// gain workers; For/ForBlocks still spawn at most GOMAXPROCS-1
// extras per call, so the current setting remains the effective bound.
var slots = make(chan struct{}, max(runtime.GOMAXPROCS(0), runtime.NumCPU()))

// For runs fn(i) for every i in [0, n), splitting the range into
// contiguous chunks. Chunks beyond the first run on extra goroutines when
// global slots are free and inline otherwise.
func For(n int, fn func(i int)) {
	_ = ForCtx(context.Background(), n, fn)
}

// ForCtx is For with cancellation: ctx.Err() is checked once per chunk, so
// a cancel stops the iteration within one chunk of work per active worker.
// Chunks already dispatched when the context fires still run to their
// boundary; fn is never invoked for a chunk whose check observed the
// cancellation. Returns ctx.Err() — callers must treat the visited set as
// incomplete when it is non-nil.
func ForCtx(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	p := runtime.GOMAXPROCS(0)
	if p > n {
		p = n
	}
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		if ctx.Err() != nil {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func(lo, hi int) {
				defer func() { <-slots; wg.Done() }()
				if ctx.Err() != nil {
					return
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}(lo, hi)
		default:
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}
	}
	if ctx.Err() == nil {
		for i := 0; i < chunk && i < n; i++ {
			fn(i)
		}
	}
	wg.Wait()
	return ctx.Err()
}

// ForBlocks dispatches the blocks [k·block, min((k+1)·block, n)) of the
// range [0, n) to workers pulling from a shared cursor — the right shape
// when per-item cost is uneven and workers carry per-goroutine state
// (allocate it at the top of worker, before the next loop). The calling
// goroutine always runs one worker; up to GOMAXPROCS-1 extras join when
// global slots are free. worker must loop:
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
	for w := runtime.GOMAXPROCS(0) - 1; w > 0; w-- {
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
