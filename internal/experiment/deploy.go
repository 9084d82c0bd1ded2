// Stage-split instance cache: a Spec factors into a deployment prefix
// (scenario, size, seed, sink — the fields that determine the pointset, the
// aggregation tree, and hence every conflict build over its links) and a
// scheduling tail (power, graph, algo, γ/δ, SINR, verify knobs). Specs that
// share the prefix — a 4-algo compare grid, near-key service jobs differing
// only in algo or power, a γ sweep — share one generation, one EMST, one
// strength-annotated lookahead build per γ ceiling, one pre-power stage per
// (SchedKey, γ) rung, one slot-power supplier per (power scheme, SINR
// params), and one slot-margin cache per SINR params, instead of
// recomputing them per spec. A γ=3 spec whose γ=2 twin already escalated
// through γ=3 therefore certifies from its twin's exact margins, and power
// variants of one schedule reuse its built slot grids. An entry keeps only
// what a later spec reads: the tree (its links and the pointset), the
// annotated lookahead builds, and per stage the schedule skeleton and scalar
// diagnostics; the conflict graph a stage colored and its coloring die with
// the stage. Results are bit-identical to cold runs: the cached artifacts
// are the exact objects a cold run would have built (generation and EMST are
// deterministic in the prefix, the shared conflict.Lookahead serves
// bit-identical graphs by its own parity contract, power suppliers are
// deterministic in the links and the scheme, and cached margins are the
// engine's own exact values), and every cached object is treated as
// immutable downstream. A run without a shared cache (Run, NewInstance, a
// spec with NoInstanceCache) goes through a private, empty DeployCache: the
// same path, with nothing to find. The margin caches of every deployment
// draw on one schedule.VerifyPool owned by the DeployCache, so retained
// grids are bounded by one budget for the whole cache, and an evicted
// deployment returns its lines to the pool.
package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"aggrate/internal/conflict"
	"aggrate/internal/lru"
	"aggrate/internal/mst"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
	"aggrate/internal/sinr"
)

// DeployKey returns the deployment prefix of the spec's canonical form:
// the fields that fully determine the generated pointset and its EMST
// (scenario preset, size, seed, sink). Specs with equal DeployKeys run the
// scheduling pipeline over the same deployment, which is what makes the
// instance cache sound. It is also the exact prefix of the canonical string
// SpecKey hashes.
func DeployKey(s Spec) string {
	n := s.normalized()
	name := ""
	if n.Scenario != nil {
		name = n.Scenario.PresetName()
	}
	return fmt.Sprintf("%s|%d|%d|%d", name, n.N, n.Seed, n.Sink)
}

// SchedKey returns a canonical content hash of the spec's pre-power
// scheduling prefix: the deployment (DeployKey) plus every field the
// ordering+coloring+schedule stage reads — graph kind, algorithm, δ, and the
// SINR constants. It is SpecKey minus the power scheme and the
// verification/escalation knobs. γ is deliberately absent too: the stage
// runs at a concrete (possibly escalated) γ, so the stage cache sub-keys
// each build by the attempt's γ — power-scheme-only spec variants and
// γ-sweeps that reach the same rung then share one ordering+coloring build.
func SchedKey(s Spec) string {
	n := s.normalized()
	h := sha256.Sum256([]byte(DeployKey(s) + fmt.Sprintf("|sched|%s|%s|%g|%g|%g|%g|%g",
		n.Graph, n.Algo, n.Delta,
		n.SINR.Alpha, n.SINR.Beta, n.SINR.Noise, n.SINR.Epsilon)))
	return hex.EncodeToString(h[:16])
}

// schedGammaKey is the stage cache's sub-key: the SchedKey prefix plus the
// attempt's concrete γ, printed exactly (hex float) so distinct rungs never
// collide through decimal rounding.
func schedGammaKey(schedKey string, gamma float64) string {
	return schedKey + "|" + strconv.FormatFloat(gamma, 'x', -1, 64)
}

// deployEntry holds the deployment-determined artifacts of one DeployKey.
// Once built, the artifact fields are immutable and safe to share across
// instances.
type deployEntry struct {
	// tree is the deployment's convergecast tree; tree.Points is its
	// generated pointset.
	tree *mst.Tree

	// las shares one conflict.Lookahead per γ ceiling across the specs of
	// this deployment. A Lookahead is internally keyed by (family, link-set
	// content) and safe for concurrent use, so specs with different graph
	// kinds or deltas coexist in one; the ceiling must match exactly
	// because the annotated build's strengths only cover γ ≤ ceiling.
	las *lru.Cache[float64, *conflict.Lookahead]

	// scheds shares the pre-power stage product — the schedule skeleton and
	// its scalar strategy diagnostics, never the conflict graph or the
	// coloring — across the specs of this deployment, keyed by
	// schedGammaKey (SchedKey + the attempt's concrete γ). Strategies are
	// deterministic in (links, Config) and the cached *schedule.Schedule and
	// Diag are immutable after publish, so a reused stage is bit-identical
	// to the build a cold run would have done. It is unbounded: it lives
	// and dies with its deployment.
	scheds *lru.Cache[string, schedStage]

	// pfs shares the slot-power supplier of each (power scheme, SINR
	// params) across the specs of this deployment: the oblivious schemes'
	// per-link powers are assigned once, and global power's memo of solved
	// slots serves every spec. Suppliers are deterministic in the links and
	// the key and safe for concurrent use.
	pfs *lru.Cache[powerKey, schedule.PowerFunc]

	// vcs shares one slot-margin cache per SINR params across the specs of
	// this deployment. Every schedule of the entry is over tree.Links, so
	// the caches' keys (global link indices plus power bits) mean the same
	// slot for every spec. The caches draw on pool, the DeployCache's
	// shared pool.
	vcs  *lru.Cache[sinr.Params, *schedule.VerifyCache]
	pool *schedule.VerifyPool
}

// powerKey is what a slot-power supplier depends on besides the links.
type powerKey struct {
	scheme string
	p      sinr.Params
}

// schedStage is one cached pre-power stage product: the schedule skeleton
// (ordering+coloring) of one (SchedKey, γ) under a deployment and the
// strategy's Diag, which holds no per-link or per-edge data.
type schedStage struct {
	sched *schedule.Schedule
	diag  scheduler.Diag
}

// lookaheadFor returns the entry's shared Lookahead armed at the given γ
// ceiling, creating it on first request.
func (e *deployEntry) lookaheadFor(top float64) *conflict.Lookahead {
	la, _, _ := e.las.Fill(context.TODO(), top, func() (*conflict.Lookahead, error) {
		return conflict.NewLookahead(top), nil
	})
	return la
}

// powerFor returns the entry's shared slot-power supplier for the spec's
// power scheme and SINR params, creating it on first request. A failed
// assignment is not cached, so every spec that asks reports it.
func (e *deployEntry) powerFor(spec Spec) (schedule.PowerFunc, error) {
	pf, _, err := e.pfs.Fill(context.TODO(), powerKey{spec.Power, spec.SINR}, func() (schedule.PowerFunc, error) {
		return spec.powerFunc(e.tree.Links)
	})
	return pf, err
}

// verifyCacheFor returns the entry's shared slot-margin cache for p,
// creating it on first request.
func (e *deployEntry) verifyCacheFor(p sinr.Params) *schedule.VerifyCache {
	vc, _, _ := e.vcs.Fill(context.TODO(), p, func() (*schedule.VerifyCache, error) {
		return e.pool.Cache(p), nil
	})
	return vc
}

// releaseVerify returns the lines of the entry's margin caches to the pool.
// An instance still running on the entry may add lines afterwards; they age
// out of the pool like any other.
func (e *deployEntry) releaseVerify() {
	for _, p := range e.vcs.Keys() {
		if vc, ok := e.vcs.Peek(p); ok {
			vc.Release()
		}
	}
}

// DeployCache is an LRU cache of deployment artifacts keyed by DeployKey,
// shared across the specs of a batch (and, in the serving layer, across
// jobs). Concurrent requests for the same missing key collapse into one
// build: the first caller generates the deployment while the rest wait on
// it. Safe for concurrent use.
type DeployCache struct {
	entries *lru.Cache[string, *deployEntry]
	// verify is the one byte budget of every entry's slot-margin caches.
	verify *schedule.VerifyPool

	// Pre-power stage cache counters, across every deployment entry: a hit
	// is an escalation attempt served by a cached ordering+coloring build
	// (possibly after waiting for its builder), a miss is an attempt that
	// built the stage.
	schedHits, schedMisses atomic.Int64
}

// DefaultDeployCacheEntries is the entry budget NewDeployCache installs for
// batch runners: deployments are large (points, tree, annotated conflict
// builds), and a compare grid only ever needs the deployments of one
// (scenario, n, seed) cell at a time per worker.
const DefaultDeployCacheEntries = 4

// NewDeployCache returns an empty cache holding at most maxEntries
// deployments (≤ 0 means DefaultDeployCacheEntries), whose slot-margin
// caches share schedule.DefaultVerifyCacheBytes between them.
func NewDeployCache(maxEntries int) *DeployCache {
	if maxEntries <= 0 {
		maxEntries = DefaultDeployCacheEntries
	}
	return &DeployCache{
		entries: lru.NewEvict(maxEntries, math.MaxInt64, func(_ string, e *deployEntry) { e.releaseVerify() }),
		verify:  schedule.NewVerifyPool(schedule.DefaultVerifyCacheBytes),
	}
}

// Len reports the number of cached deployments (including in-flight builds).
func (dc *DeployCache) Len() int {
	return dc.entries.Len()
}

// Stats reports the cache's lifetime hit/miss/eviction counters. A hit is a
// request served by an existing entry (possibly waiting for its builder);
// a miss is a request that had to build.
func (dc *DeployCache) Stats() (hits, misses, evictions int64) {
	return dc.entries.Stats()
}

// SchedStats reports the pre-power stage cache's lifetime hit/miss counters:
// hits are escalation attempts whose ordering+coloring+schedule skeleton was
// served by a cached build (power-scheme-only spec variants and γ-sweep
// rungs landing on a stage another spec already built), misses are attempts
// that built the stage.
func (dc *DeployCache) SchedStats() (hits, misses int64) {
	return dc.schedHits.Load(), dc.schedMisses.Load()
}

// schedFor resolves one escalation attempt's pre-power stage product through
// dep's stage cache, running build (the strategy invocation) on a miss.
// reused reports that build did not run here, so the caller can skip
// stamping stage timings for work that never ran in this instance.
func (dc *DeployCache) schedFor(ctx context.Context, dep *deployEntry, key string,
	build func() (*schedule.Schedule, scheduler.Diag, error)) (sched *schedule.Schedule, diag scheduler.Diag, reused bool, err error) {
	built := false
	st, hit, err := dep.scheds.Fill(ctx, key, func() (schedStage, error) {
		built = true
		s, d, err := build()
		return schedStage{s, d}, err
	})
	if hit {
		dc.schedHits.Add(1)
	} else {
		dc.schedMisses.Add(1)
	}
	if err != nil {
		return nil, scheduler.Diag{}, false, err
	}
	return st.sched, st.diag, !built, nil
}

// deployFor resolves the deployment artifacts for spec through the cache:
// a hit shares the cached pointset/tree (stamping Timings.DeployReused), a
// miss builds them, stamping the generate and EMST timings. As in every lru
// fill, a waiter whose builder failed builds under its own context: the
// cache can delay an instance, never fail it.
func deployFor(ctx context.Context, spec Spec, dc *DeployCache, t *Timings) (*deployEntry, error) {
	built := false
	e, _, err := dc.entries.Fill(ctx, DeployKey(spec), func() (*deployEntry, error) {
		built = true
		return dc.buildDeploy(ctx, spec, t)
	})
	if err != nil {
		return nil, err
	}
	t.DeployReused = !built
	return e, nil
}

// buildDeploy runs the deployment stages (generate, EMST) into a fresh
// entry whose margin caches draw on the cache's pool, stamping their
// timings into t.
func (dc *DeployCache) buildDeploy(ctx context.Context, spec Spec, t *Timings) (*deployEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := &deployEntry{
		las:    lru.New[float64, *conflict.Lookahead](math.MaxInt, math.MaxInt64),
		scheds: lru.New[string, schedStage](math.MaxInt, math.MaxInt64),
		pfs:    lru.New[powerKey, schedule.PowerFunc](math.MaxInt, math.MaxInt64),
		vcs:    lru.New[sinr.Params, *schedule.VerifyCache](math.MaxInt, math.MaxInt64),
		pool:   dc.verify,
	}
	t0 := time.Now()
	pts := spec.Scenario.Generate(spec.N, spec.Seed)
	t.GenerateSec = time.Since(t0).Seconds()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	tree, err := mst.NewMSTTreeCtx(ctx, pts, spec.Sink)
	if err != nil {
		return nil, fmt.Errorf("experiment: mst: %w", err)
	}
	e.tree = tree
	t.MSTSec = time.Since(t0).Seconds()
	return e, nil
}
