// Stage-split instance cache: a Spec factors into a deployment prefix
// (scenario, size, seed, sink — the fields that determine the pointset, the
// aggregation tree, and hence every conflict build over its links) and a
// scheduling tail (power, graph, algo, γ/δ, SINR, verify knobs). Specs that
// share the prefix — a 4-algo compare grid, near-key service jobs differing
// only in algo or power — share one generation, one EMST, and one
// strength-annotated lookahead build per γ ceiling, instead of recomputing
// the deployment per spec. Results are bit-identical to cold runs: the
// cached artifacts are the exact objects a cold run would have built
// (generation and EMST are deterministic in the prefix, and the shared
// conflict.Lookahead serves bit-identical graphs by its own parity
// contract), and every cached object is treated as immutable downstream.
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
	"aggrate/internal/geom"
	"aggrate/internal/lru"
	"aggrate/internal/mst"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
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
	pts  []geom.Point
	tree *mst.Tree

	// las shares one conflict.Lookahead per γ ceiling across the specs of
	// this deployment. A Lookahead is internally keyed by (family, link-set
	// content) and safe for concurrent use, so specs with different graph
	// kinds or deltas coexist in one; the ceiling must match exactly
	// because the annotated build's strengths only cover γ ≤ ceiling.
	las *lru.Cache[float64, *conflict.Lookahead]

	// scheds shares the pre-power stage product — the schedule skeleton and
	// its strategy diagnostics — across the specs of this deployment, keyed
	// by schedGammaKey (SchedKey + the attempt's concrete γ). Strategies are
	// deterministic in (links, Config) and the cached *schedule.Schedule and
	// Diag are immutable after publish, so a reused stage is bit-identical
	// to the build a cold run would have done. It is unbounded: it lives
	// and dies with its deployment.
	scheds *lru.Cache[string, schedStage]
}

// schedStage is one cached pre-power stage product: the schedule skeleton
// (ordering+coloring) of one (SchedKey, γ) under a deployment.
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

// DeployCache is an LRU cache of deployment artifacts keyed by DeployKey,
// shared across the specs of a batch (and, in the serving layer, across
// jobs). Concurrent requests for the same missing key collapse into one
// build: the first caller generates the deployment while the rest wait on
// it. Safe for concurrent use.
type DeployCache struct {
	entries *lru.Cache[string, *deployEntry]

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
// deployments (≤ 0 means DefaultDeployCacheEntries).
func NewDeployCache(maxEntries int) *DeployCache {
	if maxEntries <= 0 {
		maxEntries = DefaultDeployCacheEntries
	}
	return &DeployCache{entries: lru.New[string, *deployEntry](maxEntries, math.MaxInt64)}
}

// Len reports the number of cached deployments (including in-flight builds).
func (dc *DeployCache) Len() int {
	if dc == nil {
		return 0
	}
	return dc.entries.Len()
}

// Stats reports the cache's lifetime hit/miss/eviction counters. A hit is a
// request served by an existing entry (possibly waiting for its builder);
// a miss is a request that had to build.
func (dc *DeployCache) Stats() (hits, misses, evictions int64) {
	if dc == nil {
		return 0, 0, 0
	}
	return dc.entries.Stats()
}

// SchedStats reports the pre-power stage cache's lifetime hit/miss counters:
// hits are escalation attempts whose ordering+coloring+schedule skeleton was
// served by a cached build (power-scheme-only spec variants and γ-sweep
// rungs landing on a stage another spec already built), misses are attempts
// that built the stage.
func (dc *DeployCache) SchedStats() (hits, misses int64) {
	if dc == nil {
		return 0, 0
	}
	return dc.schedHits.Load(), dc.schedMisses.Load()
}

// schedFor resolves one escalation attempt's pre-power stage product through
// dep's stage cache, running build (the cold path's strategy invocation) on
// a miss. reused reports that build did not run here, so the caller can
// skip stamping stage timings for work that never ran in this instance.
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
// miss builds them exactly as the cold path would, stamping the same stage
// timings. As in every lru fill, a waiter whose builder failed builds cold
// under its own context: the cache can delay an instance, never fail it.
func deployFor(ctx context.Context, spec Spec, dc *DeployCache, t *Timings) (*deployEntry, error) {
	built := false
	e, _, err := dc.entries.Fill(ctx, DeployKey(spec), func() (*deployEntry, error) {
		built = true
		return buildDeploy(ctx, spec, t)
	})
	if err != nil {
		return nil, err
	}
	t.DeployReused = !built
	return e, nil
}

// buildDeploy runs the deployment stages (generate, EMST) into a fresh
// entry, stamping the same per-stage timings the cold pipeline records.
func buildDeploy(ctx context.Context, spec Spec, t *Timings) (*deployEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := &deployEntry{
		las:    lru.New[float64, *conflict.Lookahead](math.MaxInt, math.MaxInt64),
		scheds: lru.New[string, schedStage](math.MaxInt, math.MaxInt64),
	}
	t0 := time.Now()
	e.pts = spec.Scenario.Generate(spec.N, spec.Seed)
	t.GenerateSec = time.Since(t0).Seconds()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	tree, err := mst.NewMSTTreeCtx(ctx, e.pts, spec.Sink)
	if err != nil {
		return nil, fmt.Errorf("experiment: mst: %w", err)
	}
	e.tree = tree
	t.MSTSec = time.Since(t0).Seconds()
	return e, nil
}
