// Package service exposes the experiment engine as a long-running HTTP JSON
// API — the serving layer in front of the cancellable, streaming pipeline:
//
//	POST   /v1/jobs             submit a spec grid (validated up front)
//	GET    /v1/jobs/{id}        job status, progress, events, completed results
//	GET    /v1/jobs/{id}/stream NDJSON of events and results as they happen
//	DELETE /v1/jobs/{id}        cancel via the engine's context plumbing
//	GET    /v1/healthz          liveness + queue/cache/journal gauges
//	GET    /metrics             Prometheus text exposition (see metrics.go)
//
// Jobs enter a bounded priority queue and execute one at a time; within a
// job, instances fan out over an experiment.Runner worker pool. Completed
// results land in a byte-budgeted LRU cache keyed by experiment.SpecKey, so
// a repeated spec is served without recomputation.
//
// Durability: with Config.JournalPath set, every accepted job, completed
// spec, and terminal transition is appended to an NDJSON write-ahead log
// (journal.go). A restarted server replays the journal, re-enqueues the
// jobs that were queued or in flight, serves their already-completed specs
// out of the journal (source "journal", no recompute), and runs only the
// remainder — so a kill -9 mid-grid costs the specs in flight at the
// moment of death, nothing more.
//
// Admission: per-client (X-API-Key) token-bucket rate limits and live-job
// quotas, job priorities, and queue-pressure shedding of large grids. Every
// rejection is a 429/503 with a machine-readable "code" and a Retry-After
// derived from the limiter or the measured queue drain rate (admission.go).
package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aggrate/internal/experiment"
	"aggrate/internal/lru"
	"aggrate/internal/scenario"
	"aggrate/internal/scheduler"
	"aggrate/internal/sinr"
)

// Job lifecycle states.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusCancelled = "cancelled"
	// StatusInterrupted marks a job the server shut down under: its completed
	// prefix is durable and a restart on the same journal resumes it from
	// the last completed spec.
	StatusInterrupted = "interrupted"
)

// Result sources carried in StreamItem.Source.
const (
	SourceComputed = "computed"
	SourceCache    = "cache"
	SourceJournal  = "journal"
)

// Config shapes a Server.
type Config struct {
	// Workers is the per-job instance pool width, resolved through
	// experiment.Workers (<= 0 means GOMAXPROCS).
	Workers int
	// QueueSize bounds the job queue; submissions beyond it are rejected
	// with 503 rather than buffered without limit. Default 64.
	QueueSize int
	// CacheSize is the LRU result-cache capacity in specs. Default 4096.
	CacheSize int
	// CacheBytes is the LRU capacity in approximate encoded bytes; entries
	// are evicted when either bound is exceeded. Default 256 MiB.
	CacheBytes int64
	// InstanceCacheSize bounds the server-wide stage-split instance cache
	// (experiment.DeployCache) in deployments: specs sharing a deployment
	// prefix (scenario, n, seed) reuse one generation + EMST + lookahead
	// build across jobs. Negative disables the cache; 0 means
	// experiment.DefaultDeployCacheEntries.
	InstanceCacheSize int
	// MaxSpecs bounds the grid size of a single job. Default 10000.
	MaxSpecs int
	// MaxJobs bounds the job records kept in memory: when a submission
	// pushes the registry past it, the oldest *terminal* jobs — and their
	// result payloads — are evicted. Live jobs are never evicted. Default
	// 1024.
	MaxJobs int
	// JournalPath, when set, enables the durable job journal at this path.
	JournalPath string
	// JournalMaxBytes triggers a compaction rewrite once the journal grows
	// past it (checked at job boundaries). Default 64 MiB.
	JournalMaxBytes int64
	// RateLimit, when positive, is the per-client token-bucket refill rate
	// in submissions/second; RateBurst is the bucket depth (default
	// max(1, ceil(RateLimit))). Exceeding it returns 429 + Retry-After.
	RateLimit float64
	RateBurst int
	// MaxJobsPerClient, when positive, caps a client's live (queued or
	// running) jobs; exceeding it returns 429 + Retry-After.
	MaxJobsPerClient int
	// ShedWatermark is the queue-depth fraction past which large grids are
	// shed (503) while small ones are still admitted. Default 0.75.
	ShedWatermark float64
	// ShedMaxSpecs is the largest grid admitted while shedding. Default 64.
	ShedMaxSpecs int
	// Faults is the injectable fault layer; zero means no faults.
	Faults Faults
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxSpecs <= 0 {
		c.MaxSpecs = 10000
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.JournalMaxBytes <= 0 {
		c.JournalMaxBytes = 64 << 20
	}
	if c.ShedWatermark <= 0 || c.ShedWatermark > 1 {
		c.ShedWatermark = 0.75
	}
	if c.ShedMaxSpecs <= 0 {
		c.ShedMaxSpecs = 64
	}
	return c
}

// Server owns the job registry, the bounded priority queue, the executor
// goroutine, the result cache, the journal, and the metrics. Create with
// New, serve via Handler, stop with Shutdown (graceful) or Close (hard).
type Server struct {
	cfg      Config
	cache    resultCache
	deploy   *experiment.DeployCache
	metrics  *metrics
	journal  *journal
	limiter  *rateLimiter
	drainEst *drainEstimator
	faults   *faultState

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	activeWorkers atomic.Int64

	mu           sync.Mutex
	cond         *sync.Cond
	pending      jobHeap
	jobs         map[string]*job
	order        []string // job ids in creation order, for terminal-job eviction
	liveByClient map[string]int
	seq          int
	closed       bool
	running      *job
}

// New starts a Server (and its executor goroutine) with the given config.
// With a JournalPath configured it first replays the journal: terminal jobs
// seed the result cache, live ones are re-enqueued to resume. The only
// error paths are journal open/replay failures.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		cache:        newResultCache(cfg.CacheSize, cfg.CacheBytes),
		deploy:       experiment.NewDeployCache(cfg.InstanceCacheSize),
		metrics:      newMetrics(),
		limiter:      newRateLimiter(cfg.RateLimit, cfg.RateBurst),
		drainEst:     &drainEstimator{},
		faults:       &faultState{Faults: cfg.Faults},
		baseCtx:      ctx,
		cancel:       cancel,
		jobs:         make(map[string]*job),
		liveByClient: make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.JournalPath != "" {
		jl, replayed, err := openJournal(cfg.JournalPath, s.faults, s.metrics)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = jl
		s.resume(replayed)
	}
	s.registerGauges()
	s.wg.Add(1)
	go s.executor()
	return s, nil
}

// resume seeds the cache from every replayed spec and re-enqueues the
// non-terminal jobs, already-completed specs pre-populated from the journal.
func (s *Server) resume(replayed []*replayedJob) {
	for _, rj := range replayed {
		if n := jobSeq(rj.id); n > s.seq {
			s.seq = n
		}
		for _, sp := range rj.completed {
			if sp.key != "" && sp.res != nil && sp.res.Err == "" {
				s.cache.add(sp.key, sp.res)
			}
		}
		if rj.terminal() {
			continue
		}
		specs, err := rj.req.specs(s.cfg.MaxSpecs)
		if err != nil {
			// A journal from a stricter config (or a corrupted req): the job
			// cannot be re-expanded. Count it and move on — the journal is a
			// recovery aid, not a reason to refuse to start.
			s.metrics.journalErrors.Add(1)
			continue
		}
		keys := make([]string, len(specs))
		for i, sp := range specs {
			keys[i] = experiment.SpecKey(sp)
		}
		j := s.newJob(rj.id, rj.client, rj.priority, rj.created, rj.req, specs, keys)
		j.resumed = true
		j.addEventLocked("submitted", "")
		j.addEventLocked("resumed", fmt.Sprintf("%d/%d specs from journal", len(rj.completed), len(specs)))
		for i := range specs {
			sp, ok := rj.completed[i]
			if !ok {
				continue
			}
			j.complete(i, sp.res, SourceJournal)
			s.metrics.journalReplayedSpecs.Add(1)
			s.metrics.specsCompleted.add(SourceJournal, 1)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.liveByClient[j.client]++
		heap.Push(&s.pending, j)
		s.metrics.jobsResumed.Add(1)
		s.metrics.journalReplayedJobs.Add(1)
	}
}

// jobSeq parses the numeric suffix of a job id ("j000042" -> 42); 0 when
// malformed.
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}

func (s *Server) registerGauges() {
	m := s.metrics
	m.registerGauge("aggrate_queue_depth", "", "Jobs waiting in the bounded queue.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.pending))
	})
	m.registerGauge("aggrate_queue_capacity", "", "Bounded queue size.", func() float64 {
		return float64(s.cfg.QueueSize)
	})
	m.registerGauge("aggrate_active_workers", "", "Engine workers currently executing specs.", func() float64 {
		return float64(s.activeWorkers.Load())
	})
	for _, state := range []string{StatusQueued, StatusRunning, StatusDone, StatusCancelled, StatusInterrupted} {
		state := state
		m.registerGauge("aggrate_jobs", fmt.Sprintf("{state=%q}", state),
			"Jobs in the registry by current state.", func() float64 {
				s.mu.Lock()
				ids := make([]*job, 0, len(s.jobs))
				for _, j := range s.jobs {
					ids = append(ids, j)
				}
				s.mu.Unlock()
				n := 0
				for _, j := range ids {
					if j.curStatus() == state {
						n++
					}
				}
				return float64(n)
			})
	}
	m.registerGauge("aggrate_cache_entries", "", "Live result-cache entries.", func() float64 {
		return float64(s.cache.len())
	})
	m.registerGauge("aggrate_cache_bytes", "", "Approximate encoded bytes held by the result cache.", func() float64 {
		return float64(s.cache.Bytes())
	})
	m.registerGauge("aggrate_cache_capacity_bytes", "", "Result-cache byte budget.", func() float64 {
		return float64(s.cfg.CacheBytes)
	})
	m.registerCounter("aggrate_cache_hits_total", "", "Result-cache hits.", func() float64 {
		n, _, _ := s.cache.Stats()
		return float64(n)
	})
	m.registerCounter("aggrate_cache_misses_total", "", "Result-cache misses.", func() float64 {
		_, n, _ := s.cache.Stats()
		return float64(n)
	})
	m.registerCounter("aggrate_cache_evictions_total", "", "Result-cache evictions.", func() float64 {
		_, _, n := s.cache.Stats()
		return float64(n)
	})
	m.registerCounter("aggrate_instance_cache_hits_total", "", "Stage-split instance-cache hits (deployments reused across specs).", func() float64 {
		h, _, _ := s.deploy.Stats()
		return float64(h)
	})
	m.registerCounter("aggrate_instance_cache_misses_total", "", "Stage-split instance-cache misses (deployments built).", func() float64 {
		_, mi, _ := s.deploy.Stats()
		return float64(mi)
	})
	m.registerCounter("aggrate_instance_cache_evictions_total", "", "Stage-split instance-cache evictions.", func() float64 {
		_, _, ev := s.deploy.Stats()
		return float64(ev)
	})
	m.registerGauge("aggrate_instance_cache_entries", "", "Deployments held by the stage-split instance cache.", func() float64 {
		return float64(s.deploy.Len())
	})
	m.registerCounter("aggrate_sched_cache_hits_total", "", "Pre-power schedule-stage cache hits (ordering+coloring builds reused across power schemes and gamma rungs).", func() float64 {
		h, _ := s.deploy.SchedStats()
		return float64(h)
	})
	m.registerCounter("aggrate_sched_cache_misses_total", "", "Pre-power schedule-stage cache misses (stage builds run).", func() float64 {
		_, mi := s.deploy.SchedStats()
		return float64(mi)
	})
}

// resultCache is the LRU over completed experiment results, keyed by
// experiment.SpecKey and weighted by approxResultSize, so CacheBytes caps
// actual memory while CacheSize bounds the entry count. Cached *Result
// values are shared across jobs and must be treated as immutable by every
// reader — the HTTP layer only marshals them.
type resultCache struct {
	*lru.Cache[string, *experiment.Result]
}

// newResultCache applies the Config defaults to non-positive budgets.
func newResultCache(maxItems int, maxBytes int64) resultCache {
	c := Config{CacheSize: maxItems, CacheBytes: maxBytes}.withDefaults()
	return resultCache{lru.New[string, *experiment.Result](c.CacheSize, c.CacheBytes)}
}

// cacheEntryOverhead approximates the per-entry bookkeeping (list links,
// map slot, struct headers) added on top of the encoded payload.
const cacheEntryOverhead = 256

// approxResultSize is the eviction weight of one cached result: its JSON
// encoding plus key and overhead. Marshal failures (impossible for Result)
// fall back to the overhead alone.
func approxResultSize(key string, res *experiment.Result) int64 {
	n := int64(len(key) + cacheEntryOverhead)
	if b, err := json.Marshal(res); err == nil {
		n += int64(len(b))
	}
	return n
}

func (c resultCache) get(key string) (*experiment.Result, bool) { return c.Get(key) }
func (c resultCache) len() int                                  { return c.Len() }
func (c resultCache) add(key string, res *experiment.Result) {
	c.Add(key, res, approxResultSize(key, res))
}

// Close hard-stops the server: every live job is cancelled immediately,
// marked interrupted in the journal, and the journal is fsynced and closed.
// Safe to call more than once.
func (s *Server) Close() {
	s.stop(context.Background(), false)
}

// Shutdown drains gracefully: submissions stop, queued jobs are marked
// interrupted, and the running job stops at its next spec boundary —
// in-flight instances run to completion and their results are journaled.
// ctx bounds the drain; on expiry the running job is hard-cancelled. Either
// way the journal is flushed, fsynced, and closed before return.
func (s *Server) Shutdown(ctx context.Context) {
	s.stop(ctx, true)
}

func (s *Server) stop(ctx context.Context, graceful bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var queued []*job
	for len(s.pending) > 0 {
		queued = append(queued, heap.Pop(&s.pending).(*job))
	}
	running := s.running
	s.cond.Broadcast()
	s.mu.Unlock()

	for _, j := range queued {
		j.interrupted.Store(true)
		j.cancel()
		s.finish(j, StatusInterrupted)
	}
	if running != nil {
		running.interrupted.Store(true)
		if graceful {
			running.drainCancel()
		} else {
			running.cancel()
		}
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel() // drain deadline expired: hard-cancel the straggler
		<-done
	}
	s.cancel()
	_ = s.journal.close()
}

// job is one submitted grid and its execution state.
type job struct {
	id       string
	client   string
	priority int
	seq      int
	specs    []experiment.Spec
	keys     []string
	req      JobRequest
	created  time.Time
	resumed  bool

	ctx         context.Context
	cancel      context.CancelFunc
	drainCtx    context.Context
	drainCancel context.CancelFunc
	interrupted atomic.Bool
	startedAt   time.Time

	mu        sync.Mutex
	status    string
	items     []StreamItem // completion order
	stream    []any        // merged StreamItem + JobEvent lines, stream order
	done      map[int]bool // spec indices with a result
	cacheHits int
	replayed  int
	events    []JobEvent
	notify    chan struct{} // closed+replaced on every state change
}

// JobEvent is one entry of a job's lifecycle trace: submitted, resumed,
// running, done, cancelled, interrupted. Events ride along in the status
// payload and interleave with results on the NDJSON stream.
type JobEvent struct {
	Time   time.Time `json:"time"`
	Event  string    `json:"event"`
	Detail string    `json:"detail,omitempty"`
}

// StreamItem is one completed instance as it appears on the stream and in
// the results array: the spec's position in the submitted grid, its cache
// key, where the result came from (computed, cache, journal), and the
// metric record. CacheHit is Source == "cache", kept for compatibility.
type StreamItem struct {
	Index    int                `json:"index"`
	SpecKey  string             `json:"spec_key"`
	CacheHit bool               `json:"cache_hit"`
	Source   string             `json:"source,omitempty"`
	Result   *experiment.Result `json:"result"`
}

func (s *Server) newJob(id, client string, priority int, created time.Time,
	req JobRequest, specs []experiment.Spec, keys []string) *job {
	j := &job{
		id: id, client: client, priority: priority, seq: jobSeq(id),
		specs: specs, keys: keys, req: req, created: created,
		status: StatusQueued,
		done:   make(map[int]bool),
		notify: make(chan struct{}),
	}
	if req.TimeoutSec > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, time.Duration(req.TimeoutSec*float64(time.Second)))
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	j.drainCtx, j.drainCancel = context.WithCancel(context.Background())
	return j
}

// complete records one finished instance and wakes the streamers.
func (j *job) complete(i int, res *experiment.Result, source string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	it := StreamItem{Index: i, SpecKey: j.keys[i], CacheHit: source == SourceCache, Source: source, Result: res}
	j.items = append(j.items, it)
	j.stream = append(j.stream, it)
	j.done[i] = true
	switch source {
	case SourceCache:
		j.cacheHits++
	case SourceJournal:
		j.replayed++
	}
	j.broadcast()
}

// addEventLocked appends a lifecycle event to the trace and the stream.
// Callers hold j.mu (or own the job exclusively during construction).
func (j *job) addEventLocked(event, detail string) {
	ev := JobEvent{Time: time.Now().UTC(), Event: event, Detail: detail}
	j.events = append(j.events, ev)
	j.stream = append(j.stream, ev)
}

// broadcast wakes every waiter; callers hold j.mu.
func (j *job) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

func statusTerminal(status string) bool {
	return status == StatusDone || status == StatusCancelled || status == StatusInterrupted
}

// terminal reports whether the job reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return statusTerminal(j.status)
}

func (j *job) curStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) completedCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// snapshot returns the stream lines at and past cursor, whether the job
// reached a terminal state, and the channel that closes on the next change.
func (j *job) snapshot(cursor int) ([]any, bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stream[cursor:], statusTerminal(j.status), j.notify
}

// jobHeap orders pending jobs by priority (higher first), then submission
// sequence (earlier first).
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].priority != h[b].priority {
		return h[a].priority > h[b].priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// JobStatus is the GET /v1/jobs/{id} payload. Results are in completion
// order; Index maps each back to its position in the submitted grid.
type JobStatus struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	CacheHits int    `json:"cache_hits"`
	// Replayed counts specs served from the journal after a restart.
	Replayed  int          `json:"journal_replayed,omitempty"`
	Priority  int          `json:"priority,omitempty"`
	Resumed   bool         `json:"resumed,omitempty"`
	CreatedAt time.Time    `json:"created_at"`
	Events    []JobEvent   `json:"events,omitempty"`
	Results   []StreamItem `json:"results,omitempty"`
}

func (j *job) statusPayload(withResults bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Status:    j.status,
		Total:     len(j.specs),
		Completed: len(j.items),
		CacheHits: j.cacheHits,
		Replayed:  j.replayed,
		Priority:  j.priority,
		Resumed:   j.resumed,
		CreatedAt: j.created,
		Events:    append([]JobEvent(nil), j.events...),
	}
	if withResults {
		st.Results = append([]StreamItem(nil), j.items...)
	}
	return st
}

// JobRequest is the POST /v1/jobs payload: the same grid axes as the CLI's
// run subcommand. Zero values take the CLI defaults (uniform scenario
// excepted — Scenarios is required; a zero alpha or beta means the default
// 3 or 2). Verify defaults to true; send false explicitly to skip SINR
// verification. Priority orders the queue (higher first, same-priority
// FIFO; must lie in [-100, 100]). Every spec of the grid must pass
// experiment.Spec.Validate. Unknown fields, verify_engine among them, are
// rejected with a 400.
type JobRequest struct {
	Scenarios []string `json:"scenarios"`
	Ns        []int    `json:"ns"`
	Seeds     int      `json:"seeds"`
	Seed      uint64   `json:"seed"`
	Powers    []string `json:"powers"`
	Algos     []string `json:"algos"`
	Graph     string   `json:"graph"`
	Gamma     float64  `json:"gamma"`
	Delta     float64  `json:"delta"`
	Alpha     float64  `json:"alpha"`
	Beta      float64  `json:"beta"`
	Noise     float64  `json:"noise"`
	Verify    *bool    `json:"verify"`
	Priority  int      `json:"priority"`
	// TimeoutSec, when positive, bounds the job's wall clock; on expiry the
	// job cancels like DELETE and keeps its completed prefix.
	TimeoutSec float64 `json:"timeout_sec"`
}

// specs applies the JSON defaults, caps the grid size and expands the
// request into the instance grid, every spec of which must pass
// experiment.Spec.Validate. Every error is reported before any instance
// runs.
func (r *JobRequest) specs(maxSpecs int) ([]experiment.Spec, error) {
	if len(r.Scenarios) == 0 {
		return nil, fmt.Errorf("scenarios is required")
	}
	scList := make([]experiment.Scenario, 0, len(r.Scenarios))
	for _, name := range r.Scenarios {
		sc, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		scList = append(scList, sc)
	}
	ns := r.Ns
	if len(ns) == 0 {
		ns = []int{1000}
	}
	powers := r.Powers
	if len(powers) == 0 {
		powers = []string{experiment.PowerMean}
	}
	algos := r.Algos
	if len(algos) == 0 {
		algos = []string{scheduler.Greedy}
	}
	// An empty name would silently take the Spec default.
	if slices.Contains(powers, "") || slices.Contains(algos, "") {
		return nil, fmt.Errorf("powers and algos entries must be non-empty")
	}
	if r.Priority < -100 || r.Priority > 100 {
		return nil, fmt.Errorf("priority %d out of range [-100, 100]", r.Priority)
	}
	seeds := r.Seeds
	if seeds < 1 {
		seeds = 1
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	alpha, beta := r.Alpha, r.Beta
	if alpha == 0 {
		alpha = 3
	}
	if beta == 0 {
		beta = 2
	}
	verify := true
	if r.Verify != nil {
		verify = *r.Verify
	}
	base := experiment.Spec{
		Seed:   seed,
		Graph:  r.Graph,
		Gamma:  r.Gamma,
		Delta:  r.Delta,
		SINR:   sinr.Params{Alpha: alpha, Beta: beta, Noise: r.Noise, Epsilon: 0.5},
		Verify: verify,
	}
	// The grid size is multiplied exactly: a huge seeds count must not wrap
	// the int product back under the limit.
	total := big.NewInt(1)
	for _, f := range []int{len(scList), len(ns), seeds, len(powers), len(algos)} {
		total.Mul(total, big.NewInt(int64(f)))
	}
	if total.Cmp(big.NewInt(int64(maxSpecs))) > 0 {
		return nil, fmt.Errorf("grid expands to %s specs, server limit is %d", total, maxSpecs)
	}
	specs := experiment.Expand(scList, ns, seeds, powers, algos, base)
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// Handler returns the route multiplexer: the /v1 API plus /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.metrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false) // keep validation messages ('>= 2') readable
	_ = enc.Encode(v)
}

// writeError emits the error body: a human-readable message plus the
// machine-readable code (admission.go's Code* constants).
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  code,
	})
}

// writeRetryError is writeError with a Retry-After header (whole seconds,
// minimum 1 — the header's resolution).
func writeRetryError(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	sec := int(retryAfter.Seconds() + 0.5)
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	writeError(w, status, code, format, args...)
}

// clientKey identifies the submitter for rate limits and quotas: the
// X-API-Key header, or "anonymous".
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	specs, err := req.specs(s.cfg.MaxSpecs)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid job: %v", err)
		return
	}
	keys := make([]string, len(specs))
	for i, sp := range specs {
		keys[i] = experiment.SpecKey(sp)
	}
	client := clientKey(r)
	if ok, retry := s.limiter.allow(client, time.Now()); !ok {
		s.metrics.rejections.add("rate_limited", 1)
		writeRetryError(w, http.StatusTooManyRequests, CodeRateLimited, retry,
			"rate limit exceeded for client %q (%.3g jobs/sec)", client, s.cfg.RateLimit)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.rejections.add("shutting_down", 1)
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is shutting down")
		return
	}
	depth := len(s.pending)
	if s.cfg.MaxJobsPerClient > 0 && s.liveByClient[client] >= s.cfg.MaxJobsPerClient {
		s.mu.Unlock()
		s.metrics.rejections.add("quota", 1)
		writeRetryError(w, http.StatusTooManyRequests, CodeQuota, s.drainEst.retryAfter(depth),
			"client %q already has %d live jobs (limit %d)", client, s.cfg.MaxJobsPerClient, s.cfg.MaxJobsPerClient)
		return
	}
	if depth >= s.cfg.QueueSize {
		s.mu.Unlock()
		s.metrics.rejections.add("queue_full", 1)
		writeRetryError(w, http.StatusServiceUnavailable, CodeQueueFull, s.drainEst.retryAfter(depth),
			"job queue full (%d queued)", depth)
		return
	}
	if float64(depth) >= s.cfg.ShedWatermark*float64(s.cfg.QueueSize) && len(specs) > s.cfg.ShedMaxSpecs {
		s.mu.Unlock()
		s.metrics.rejections.add("shed_large_job", 1)
		writeRetryError(w, http.StatusServiceUnavailable, CodeShedLargeJob, s.drainEst.retryAfter(depth),
			"shedding large jobs under queue pressure (depth %d/%d): grid of %d specs exceeds the shed limit %d",
			depth, s.cfg.QueueSize, len(specs), s.cfg.ShedMaxSpecs)
		return
	}
	s.seq++
	j := s.newJob(fmt.Sprintf("j%06d", s.seq), client, req.Priority, time.Now().UTC(), req, specs, keys)
	j.addEventLocked("submitted", "")
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.liveByClient[client]++
	// Journal the acceptance (fsync: a job boundary) before the job becomes
	// runnable — the executor must never journal a spec record the replay
	// would drop for want of its job record. The fsync happens under s.mu;
	// submissions are the slow path here by design.
	reqCopy := req
	if err := s.journal.appendSync(journalRecord{T: "job", Time: j.created, ID: j.id,
		Client: client, Priority: j.priority, Req: &reqCopy}); err != nil {
		// Journal failure degrades durability, not availability; the error
		// counter and log line are the operator's signal.
		fmt.Printf("aggrate service: journal: %v\n", err)
	}
	heap.Push(&s.pending, j)
	s.pruneJobs()
	s.cond.Signal()
	s.mu.Unlock()

	s.metrics.jobsSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, j.statusPayload(false))
}

// pruneJobs evicts the oldest terminal job records (and their result
// payloads) once the registry exceeds MaxJobs, so a long-running server's
// memory stays bounded by the cap plus the live jobs. Callers hold s.mu.
func (s *Server) pruneJobs() {
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) > s.cfg.MaxJobs && j.terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	withResults := r.URL.Query().Get("results") != "false"
	writeJSON(w, http.StatusOK, j.statusPayload(withResults))
}

// handleStream writes the job's NDJSON trace as it grows: one line per
// lifecycle event ({"time":...,"event":...}) and one per completed instance
// (StreamItem), then a terminal {"done":true,...} line. A client disconnect
// stops the stream without affecting the job.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		lines, terminal, notify := j.snapshot(cursor)
		for _, it := range lines {
			if err := enc.Encode(it); err != nil {
				return
			}
		}
		cursor += len(lines)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			st := j.statusPayload(false)
			_ = enc.Encode(map[string]any{
				"done": true, "status": st.Status,
				"completed": st.Completed, "total": st.Total, "cache_hits": st.CacheHits,
			})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.cancel()
	// A queued job never reaches the executor's running transition, so its
	// terminal state is set here; a running one transitions when the runner
	// unwinds (within one chunk boundary of the cancel).
	if j.curStatus() == StatusQueued {
		s.finish(j, StatusCancelled)
	}
	writeJSON(w, http.StatusOK, j.statusPayload(false))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	depth := len(s.pending)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"jobs":          jobs,
		"queue_depth":   depth,
		"queue_size":    s.cfg.QueueSize,
		"cache_entries": s.cache.len(),
		"cache_bytes":   s.cache.Bytes(),
		"journal":       s.cfg.JournalPath,
		"workers":       experiment.Workers(s.cfg.Workers, 1<<30),
	})
}

// finish transitions j to a terminal status (first caller wins), records
// the event, journals and fsyncs the transition, feeds the drain estimator,
// and releases the client's quota slot.
func (s *Server) finish(j *job, status string) {
	j.mu.Lock()
	if statusTerminal(j.status) {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.addEventLocked(status, "")
	j.broadcast()
	j.mu.Unlock()

	_ = s.journal.appendSync(journalRecord{T: "status", Time: time.Now().UTC(), Job: j.id, Status: status})
	if !j.startedAt.IsZero() {
		s.drainEst.observe(time.Since(j.startedAt).Seconds())
	}
	s.metrics.jobSeconds.observe(time.Since(j.created).Seconds())
	s.mu.Lock()
	if s.liveByClient[j.client] > 1 {
		s.liveByClient[j.client]--
	} else {
		delete(s.liveByClient, j.client)
	}
	s.mu.Unlock()
}

// executor drains the priority queue, one job at a time: total engine
// parallelism stays bounded by the per-job worker pool regardless of how
// many jobs are queued.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.pending).(*job)
		s.running = j
		s.mu.Unlock()

		j.mu.Lock()
		claimed := j.status == StatusQueued
		if claimed {
			j.status = StatusRunning
			j.startedAt = time.Now()
			j.addEventLocked("running", "")
			j.broadcast()
		}
		j.mu.Unlock()
		if claimed {
			s.runJob(j)
		}

		s.mu.Lock()
		s.running = nil
		s.mu.Unlock()
	}
}

// journalSpec appends one completed spec to the journal (flush, no fsync —
// the job-boundary sync bounds the loss window).
func (s *Server) journalSpec(j *job, i int, res *experiment.Result) {
	_ = s.journal.append(journalRecord{T: "spec", Time: time.Now().UTC(),
		Job: j.id, Index: i, Key: j.keys[i], Result: res})
}

// runJob serves journal-replayed specs as already done, cache hits
// immediately, fans the misses out over the engine's streaming Runner, and
// stores fresh successes back in the cache. Every completion is journaled;
// the terminal transition is journaled with an fsync.
func (s *Server) runJob(j *job) {
	defer j.cancel() // release the timeout timer, if any
	var missIdx []int
	for i := range j.specs {
		j.mu.Lock()
		already := j.done[i]
		j.mu.Unlock()
		if already { // replayed from the journal at startup
			continue
		}
		if res, ok := s.cache.get(j.keys[i]); ok {
			j.complete(i, res, SourceCache)
			s.metrics.specsCompleted.add(SourceCache, 1)
			s.journalSpec(j, i, res)
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) > 0 && j.ctx.Err() == nil && j.drainCtx.Err() == nil {
		miss := make([]experiment.Spec, len(missIdx))
		for k, i := range missIdx {
			miss[k] = j.specs[i]
			if s.cfg.InstanceCacheSize < 0 {
				// Instance cache disabled by config: every spec deploys cold
				// through a private cache, and s.deploy stays empty.
				miss[k].NoInstanceCache = true
			}
		}
		s.activeWorkers.Store(int64(experiment.Workers(s.cfg.Workers, len(miss))))
		runner := experiment.Runner{Workers: s.cfg.Workers, Deploy: s.deploy, Drain: j.drainCtx, Sink: func(k int, r *experiment.Result) {
			i := missIdx[k]
			if r.Err == "" {
				s.cache.add(j.keys[i], r)
			}
			j.complete(i, r, SourceComputed)
			s.metrics.specsCompleted.add(SourceComputed, 1)
			for _, st := range r.Timings.StageSeconds() {
				s.metrics.stageSeconds.observe(st.Stage, st.Sec)
			}
			s.journalSpec(j, i, r)
			s.faults.onSpecDone()
		}}
		_, _ = runner.Run(j.ctx, miss)
		s.activeWorkers.Store(0)
	}
	var status string
	switch {
	case j.completedCount() == len(j.specs):
		status = StatusDone
	case j.ctx.Err() != nil && !j.interrupted.Load():
		status = StatusCancelled
	default:
		// The drain context stopped the runner at a spec boundary, or the
		// shutdown path hard-cancelled us: either way the completed prefix is
		// durable and a restart resumes from it.
		status = StatusInterrupted
	}
	s.finish(j, status)
	_ = s.journal.maybeCompact(s.liveReplayState(), s.cfg.JournalMaxBytes)
}

// liveReplayState snapshots every non-terminal job in journal-replay form —
// the input to a size-triggered compaction.
func (s *Server) liveReplayState() []*replayedJob {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	byID := make(map[string]*job, len(s.jobs))
	for id, j := range s.jobs {
		byID[id] = j
	}
	s.mu.Unlock()
	var out []*replayedJob
	for _, id := range ids {
		j := byID[id]
		if j == nil || j.terminal() {
			continue
		}
		rj := &replayedJob{
			id: j.id, client: j.client, priority: j.priority,
			created: j.created, req: j.req, status: StatusQueued,
			completed: make(map[int]replayedSpec),
		}
		j.mu.Lock()
		for _, it := range j.items {
			rj.completed[it.Index] = replayedSpec{key: it.SpecKey, res: it.Result}
		}
		j.mu.Unlock()
		out = append(out, rj)
	}
	return out
}
