// Admission control: per-client token buckets, live-job quotas, and
// queue-pressure load shedding. Every rejection carries a machine-readable
// error code and a Retry-After derived from the actual state — the token
// refill time for rate limits, the queue drain rate for pressure — so
// well-behaved clients can back off precisely instead of hammering.
package service

import (
	"math"
	"sync"
	"time"
)

// Machine-readable error codes carried in the "code" field of error bodies.
const (
	CodeBadRequest   = "bad_request"
	CodeNotFound     = "not_found"
	CodeQueueFull    = "queue_full"
	CodeRateLimited  = "rate_limited"
	CodeQuota        = "quota"
	CodeShedLargeJob = "shed_large_job"
	CodeShuttingDown = "shutting_down"
)

// rateLimiter is a per-client token bucket: rate tokens/second refill up to
// burst. A zero rate disables it.
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = math.Max(1, math.Ceil(rate))
	}
	return &rateLimiter{rate: rate, burst: b, buckets: make(map[string]*bucket)}
}

// allow takes one token for client; when none is available it reports the
// wait until the next token refills.
func (rl *rateLimiter) allow(client string, now time.Time) (ok bool, retryAfter time.Duration) {
	if rl == nil {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[client]
	if b == nil {
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[client] = b
	}
	b.tokens = math.Min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / rl.rate
	return false, time.Duration(math.Ceil(need)) * time.Second
}

// drainEstimator tracks an exponentially weighted moving average of job
// service time, turning queue depth into a Retry-After estimate.
type drainEstimator struct {
	mu   sync.Mutex
	ewma float64 // seconds per job; 0 = no observation yet
}

// observe records one completed job's wall-clock seconds.
func (d *drainEstimator) observe(sec float64) {
	if sec <= 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ewma == 0 {
		d.ewma = sec
	} else {
		d.ewma = 0.3*sec + 0.7*d.ewma
	}
}

// perJob returns the current estimate, defaulting to 2s before any job has
// completed.
func (d *drainEstimator) perJob() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ewma == 0 {
		return 2
	}
	return d.ewma
}

// retryAfter estimates how long until depth jobs ahead of a newcomer have
// drained, clamped to [1s, 300s] so headers stay sane under both an empty
// estimator and a pathological backlog.
func (d *drainEstimator) retryAfter(depth int) time.Duration {
	sec := d.perJob() * float64(depth+1)
	sec = math.Max(1, math.Min(300, math.Ceil(sec)))
	return time.Duration(sec) * time.Second
}
