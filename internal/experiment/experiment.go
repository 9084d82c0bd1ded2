// Package experiment wires the algorithmic layers into the paper's
// experiment loop: scenario pointset → MST aggregation tree → scheduling
// strategy (conflict graph + coloring, pluggable via internal/scheduler) →
// TDMA schedule → SINR verification. One Spec describes one instance; the
// batch runner fans a (scenario × size × seed × power scheme × algorithm)
// product out over a worker pool and aggregates the per-instance metrics
// into JSON-ready summaries.
//
// Feasibility handling: the paper's guarantees hold for a large-enough
// conflict parameter γ, but the concrete constant is not pinned down. Run
// therefore verifies every slot against the SINR condition and, on
// failure, escalates γ geometrically and rebuilds — the schedule returned
// with Verified=true always passed (*schedule.Schedule).VerifySINRDelta.
package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aggrate/internal/coloring"
	"aggrate/internal/conflict"
	"aggrate/internal/geom"
	"aggrate/internal/lru"
	"aggrate/internal/mst"
	"aggrate/internal/power"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
	"aggrate/internal/sinr"
	"aggrate/internal/stats"
)

// Graph kinds selectable in a Spec, matching the paper's three conflict
// graphs.
const (
	// GraphGamma is G_γ (constant threshold) — the structural graph of
	// Theorem 2; its independent sets need not be SINR-feasible on their
	// own, so expect γ escalation when verifying.
	GraphGamma = "gamma"
	// GraphOblivious is G^δ_γ, whose independent sets are feasible under
	// the oblivious scheme P_τ with τ = δ.
	GraphOblivious = "obl"
	// GraphArbitrary is G_{γlog}, whose independent sets are feasible
	// under global power control.
	GraphArbitrary = "arb"
)

// Power scheme names selectable in a Spec.
const (
	PowerUniform = "uniform"
	PowerMean    = "mean"
	PowerLinear  = "linear"
	PowerGlobal  = "global"
)

// Spec fully determines one experiment instance.
type Spec struct {
	Scenario Scenario
	N        int
	Seed     uint64
	Sink     int
	Power    string
	Graph    string
	// Algo selects the scheduling strategy (see internal/scheduler);
	// empty means scheduler.Greedy.
	Algo   string
	Gamma  float64
	Delta  float64
	SINR   sinr.Params
	Refine bool
	Verify bool
	// VerifyEngine selects the SINR verification engine:
	// schedule.EngineFast (the default) or schedule.EngineNaive, the exact
	// O(m²)-per-slot oracle.
	VerifyEngine string
	// MaxGammaRetries bounds the escalation loop (default 8).
	MaxGammaRetries int
	// GammaStep is the escalation factor (default 1.5).
	GammaStep float64
	// NoIncrementalVerify disables the slot-margin cache that carries exact
	// verdicts across γ-escalation attempts (the VerifySINRDelta path), so
	// every attempt recomputes every slot. Purely a performance knob — the
	// cache replays the engine's own exact margins for content-identical
	// slots, so margins, verdicts, and error messages are the same either
	// way — hence it does not participate in SpecKey.
	NoIncrementalVerify bool
	// NoLookahead disables the γ-lookahead conflict build, so every
	// escalation attempt pays a full grid rebuild instead of filtering one
	// strength-annotated build. Like NoIncrementalVerify it is purely a
	// performance knob — lookahead-filtered graphs are bit-identical to
	// direct builds (the conflict package's parity and fuzz suites pin
	// this) — so it does not participate in SpecKey.
	NoLookahead bool
	// GammaLookahead is how many escalation rungs beyond the current γ the
	// lookahead build covers (default 1: each build also serves the next
	// retry; measured builds at γ·step cost only ~1.3× the build at γ, so
	// deeper windows trade more up-front edges for rarely-used coverage).
	// Escalations past the window re-arm a fresh lookahead at the new γ.
	// A performance knob like NoLookahead: excluded from SpecKey.
	GammaLookahead int
	// NoInstanceCache opts this spec out of the batch runner's stage-split
	// instance cache (the DeployCache), so the deployment (pointset, EMST,
	// lookahead builds) is generated cold even when a same-deployment spec
	// already built it. Another pure performance knob: cached deployments
	// are the exact artifacts a cold run builds, results are bit-identical
	// either way — so it does not participate in SpecKey.
	NoInstanceCache bool
}

// Scenario is the deployment-generator dependency of the runner. It is the
// method set of internal/scenario.Spec, stated as an interface so tests can
// inject fixed pointsets without going through a preset.
type Scenario interface {
	Generate(n int, seed uint64) []geom.Point
	PresetName() string
}

// NamedScenario adapts any generator-like Generate function to the runner.
type NamedScenario struct {
	Name string
	Gen  func(n int, seed uint64) []geom.Point
}

// Generate implements Scenario.
func (s NamedScenario) Generate(n int, seed uint64) []geom.Point { return s.Gen(n, seed) }

// PresetName implements Scenario.
func (s NamedScenario) PresetName() string { return s.Name }

// NewSpec returns a Spec with the harness defaults filled in: mean power
// over G^δ_γ with γ=2, δ=1/2, the paper's default SINR constants, and
// verification on.
func NewSpec(sc Scenario, n int, seed uint64) Spec {
	return Spec{
		Scenario:        sc,
		N:               n,
		Seed:            seed,
		Power:           PowerMean,
		Graph:           GraphOblivious,
		Algo:            scheduler.Greedy,
		Gamma:           2,
		Delta:           0.5,
		SINR:            sinr.DefaultParams(),
		Verify:          true,
		MaxGammaRetries: 8,
		GammaStep:       1.5,
	}
}

// Normalized returns the spec with every defaultable field filled in — the
// exact spec the pipeline runs. Two specs with equal Normalized forms
// produce identical results, which is what makes SpecKey a sound cache key.
func (s Spec) Normalized() Spec { return s.normalized() }

// SpecKey returns a canonical content hash of the normalized spec:
// scenario preset, size, seed, sink, power, graph, algo, γ/δ, the SINR
// constants, refine/verify switches, engine, and the escalation knobs.
// Specs that normalize identically share a key, so a result cache keyed by
// SpecKey serves repeated grids without recomputation. Hand-built scenarios
// (NamedScenario) are distinguished only by their name; callers caching
// across processes must use registered presets.
func SpecKey(s Spec) string {
	n := s.normalized()
	// The canonical string factors as DeployKey (the deployment prefix:
	// scenario, n, seed, sink) followed by the scheduling tail, so the
	// instance cache's key is literally a prefix of the result cache's.
	h := sha256.Sum256([]byte(DeployKey(s) + fmt.Sprintf("|%s|%s|%s|%g|%g|%g|%g|%g|%g|%t|%t|%s|%d|%g",
		n.Power, n.Graph, n.Algo, n.Gamma, n.Delta,
		n.SINR.Alpha, n.SINR.Beta, n.SINR.Noise, n.SINR.Epsilon,
		n.Refine, n.Verify, n.VerifyEngine, n.MaxGammaRetries, n.GammaStep)))
	return hex.EncodeToString(h[:16])
}

// CheckFinite rejects a NaN or infinite Gamma, Delta or GammaStep. The
// defaults of normalized only replace values that compare out of range, and
// NaN compares false against every bound, so without this check a NaN γ or
// δ would run the pipeline and fail late — or not at all.
func (s Spec) CheckFinite() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"gamma", s.Gamma}, {"delta", s.Delta}, {"gamma step", s.GammaStep}} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("experiment: %s is %g, want a finite value", p.name, p.v)
		}
	}
	return nil
}

func (s Spec) normalized() Spec {
	if s.Power == "" {
		s.Power = PowerMean
	}
	if s.Graph == "" {
		s.Graph = GraphOblivious
	}
	if s.Algo == "" {
		s.Algo = scheduler.Greedy
	}
	if s.Gamma <= 0 {
		s.Gamma = 2
	}
	if s.Delta <= 0 || s.Delta >= 1 {
		s.Delta = 0.5
	}
	if s.SINR == (sinr.Params{}) {
		s.SINR = sinr.DefaultParams()
	}
	if s.VerifyEngine == "" {
		s.VerifyEngine = schedule.EngineFast
	}
	if s.MaxGammaRetries <= 0 {
		s.MaxGammaRetries = 8
	}
	if s.GammaStep <= 1 {
		s.GammaStep = 1.5
	}
	if s.GammaLookahead <= 0 {
		s.GammaLookahead = 1
	}
	return s
}

// config materializes the scheduler configuration for the spec at a
// concrete γ.
func (s Spec) config(gamma float64) scheduler.Config {
	return scheduler.Config{Graph: s.Graph, Gamma: gamma, Delta: s.Delta, SINR: s.SINR}
}

// powerFunc returns the slot-power supplier for the spec's scheme over the
// given link set.
func (s Spec) powerFunc(links []geom.Link) (schedule.PowerFunc, error) {
	var sch power.Scheme
	switch s.Power {
	case PowerUniform:
		sch = power.Uniform()
	case PowerMean:
		sch = power.Mean()
	case PowerLinear:
		sch = power.Linear()
	case PowerGlobal:
		// Per-instance memo of solved slot power vectors, keyed by slot
		// content. Jacobi solving dominates global-power verification, and
		// the same slot is verified more than once whenever the final
		// schedule is re-checked — the fast-vs-naive parity tests, a warm
		// re-verify — so each distinct slot
		// is solved exactly once per instance. Callers must not mutate the
		// returned vector; the function is safe for concurrent use.
		solved := lru.New[string, []float64](math.MaxInt, math.MaxInt64)
		return func(_ int, linkIdx []int) ([]float64, error) {
			raw := make([]byte, 0, 4*len(linkIdx))
			for _, i := range linkIdx {
				raw = append(raw, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
			}
			out, _, err := solved.Fill(context.TODO(), string(raw), func() ([]float64, error) {
				slot := make([]geom.Link, len(linkIdx))
				for k, i := range linkIdx {
					slot[k] = links[i]
				}
				return power.Solve(slot, s.SINR, power.SolveOptions{})
			})
			return out, err
		}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown power scheme %q", s.Power)
	}
	perLink, err := sch.Assign(links, s.SINR)
	if err != nil {
		return nil, err
	}
	return schedule.FixedPower(perLink), nil
}

// Instance is one fully-materialized pipeline run: the artifacts of every
// stage, kept for inspection, plotting, and tests.
type Instance struct {
	Spec   Spec
	Points []geom.Point
	Tree   *mst.Tree
	// Graph is the strategy's global conflict graph; nil for strategies
	// that only build per-class graphs (lengthclass).
	Graph *conflict.Graph
	// Colors is the per-link coloring when the schedule is a proper
	// coloring; nil for interleaved schedules (lengthclass).
	Colors   []int
	Schedule *schedule.Schedule
	// Diag is the strategy's full diagnostic record.
	Diag scheduler.Diag
	// RefineSets is the Theorem-2 partition, nil unless Spec.Refine.
	RefineSets [][]int
	// GammaUsed is the γ the final (verified) build used.
	GammaUsed float64
	// GammaRetries counts escalations before verification succeeded.
	GammaRetries int
	// Margin is the worst slot SINR margin observed by VerifySINRDelta
	// (+Inf when every slot is a singleton under zero noise).
	Margin float64
	// VerifyStats is the fast engine's diagnostic record for the final
	// verification pass; zero when VerifyEngine is naive or Verify is off.
	VerifyStats schedule.VerifyStats
	// pf is the slot-power supplier verification used, retained so the
	// parity tests can re-verify without re-deriving powers (and, under
	// global power control, without re-solving cached slots).
	pf schedule.PowerFunc
	// vc is the incremental verification cache the escalation loop used
	// (nil when Spec.NoIncrementalVerify or Verify was off); it holds the
	// exact margin and built grid of every slot of the final schedule.
	vc *schedule.VerifyCache
}

// Timings records per-stage wall-clock seconds, plus the verification
// engine's work diagnostics (which ride along here so the run output and
// golden files carry them next to the times they explain).
type Timings struct {
	GenerateSec float64 `json:"generate_sec"`
	MSTSec      float64 `json:"mst_sec"`
	// DeployReused reports that the deployment (pointset + EMST, and any
	// lookahead builds another spec already paid for) came from the batch
	// runner's instance cache; GenerateSec and MSTSec are then zero — the
	// stages never ran in this instance.
	DeployReused bool `json:"deploy_reused,omitempty"`
	// SchedReused reports that at least one escalation attempt's pre-power
	// stage — conflict build, ordering, coloring, the schedule skeleton —
	// was served by the instance cache's stage map (another spec of the
	// same deployment, differing only in power scheme or initial γ, already
	// built that (SchedKey, γ) rung); the reused attempts contribute
	// nothing to BuildSec/OrderSec/ColorSec, which stayed with the builder.
	SchedReused bool `json:"sched_reused,omitempty"`
	// BuildSec counts full conflict-graph builds only; γ-escalation retries
	// served by the lookahead cache account their (much smaller) filter-scan
	// time under BuildFilterSec instead, and set BuildReused.
	BuildSec       float64 `json:"build_sec"`
	BuildFilterSec float64 `json:"build_filter_sec,omitempty"`
	// BuildReused reports that at least one attempt's conflict graph was
	// materialized by filtering a cached strength-annotated build rather
	// than a fresh grid build.
	BuildReused bool `json:"build_reused,omitempty"`
	// OrderSec is the vertex-order computation time (the length sort of
	// greedy/lengthclass; zero for orderless colorings), split out from
	// ColorSec so the coloring stage's cost is tracked per strategy.
	OrderSec  float64 `json:"order_sec"`
	ColorSec  float64 `json:"color_sec"`
	RefineSec float64 `json:"refine_sec,omitempty"`
	VerifySec float64 `json:"verify_sec"`
	// PowerSolveSec is the CPU time spent computing slot power assignments
	// (global power's per-slot Solve; ≈0 for oblivious schemes), summed
	// over slots. Slots verify in parallel, so this can exceed the
	// wall-clock VerifySec. Only measured by the fast engine.
	PowerSolveSec float64 `json:"power_solve_sec"`
	// VerifyExactLinks counts link-slot pairs the fast engine resolved via
	// its exact pairwise fallback, summed over gamma escalations.
	VerifyExactLinks int64 `json:"verify_exact_links,omitempty"`
	// VerifyExactPairsFrac is the fraction of the naive O(m²) pairwise
	// work the fast engine actually performed (near-field + fallback).
	VerifyExactPairsFrac float64 `json:"verify_exact_pairs_frac,omitempty"`
	// VerifyReusedSlots counts slot verifications answered from the
	// incremental cache (content-identical slot seen on an earlier
	// γ-escalation attempt), summed over attempts. Zero when incremental
	// verification is disabled or no attempt shared a slot.
	VerifyReusedSlots int64 `json:"verify_reused_slots,omitempty"`
	// VerifyGridReused counts slot verifications that recomputed a margin
	// over a cached built sender grid (same membership as an earlier slot,
	// different powers — the grid-refresh path that skips buildGrid), summed
	// over attempts.
	VerifyGridReused int64 `json:"verify_grid_reused,omitempty"`
	// VerifyRefinedCells counts far-field cells the engine re-aggregated at
	// tightened openings during adaptive refinement (its middle tier,
	// between the coarse pyramid pass and the exact fallback).
	VerifyRefinedCells int64 `json:"verify_refined_cells,omitempty"`
	// Conflict-build pruning counters (conflict.BuildStats), summed over
	// every graph built across escalation attempts: cells whose member
	// lists were streamed vs cells rejected whole by the per-cell
	// bbox/min-length screen, and candidates distance-tested vs edges
	// accepted. BuildCandScanned/BuildCandAccepted is the mean number of
	// distance tests per accepted edge — a hardware-independent
	// candidate-efficiency signal TestPipelineWorkCounters holds. Zero
	// for attempts served by the stage cache (no build ran here).
	BuildCellsScanned int64   `json:"build_cells_scanned,omitempty"`
	BuildCellsPruned  int64   `json:"build_cells_pruned,omitempty"`
	BuildCandScanned  int64   `json:"build_cand_scanned,omitempty"`
	BuildCandAccepted int64   `json:"build_cand_accepted,omitempty"`
	TotalSec          float64 `json:"total_sec"`
}

// StageSecond is one element of Timings.StageSeconds: a pipeline stage name
// and its accumulated wall-clock seconds.
type StageSecond struct {
	Stage string
	Sec   float64
}

// StageSeconds exports the per-stage wall-clock split in pipeline order —
// gen, mst, build (full builds plus lookahead filter scans), order, color,
// verify — as (stage, seconds) pairs. It is the serving layer's metrics
// hook: latency histograms are fed from it without reaching into the
// individual Timings fields.
func (t Timings) StageSeconds() []StageSecond {
	return []StageSecond{
		{"gen", t.GenerateSec},
		{"mst", t.MSTSec},
		{"build", t.BuildSec + t.BuildFilterSec},
		{"order", t.OrderSec},
		{"color", t.ColorSec},
		{"verify", t.VerifySec},
	}
}

// Result is the JSON-ready metric record of one instance.
type Result struct {
	Scenario string `json:"scenario"`
	N        int    `json:"n"`
	Seed     uint64 `json:"seed"`
	Power    string `json:"power"`
	Graph    string `json:"graph"`
	Algo     string `json:"algo"`

	Links         int     `json:"links"`
	Diversity     float64 `json:"diversity"`
	Log2Diversity float64 `json:"log2_diversity"`
	LogStar       int     `json:"logstar_diversity"`
	LogLog        float64 `json:"loglog_diversity"`

	Edges     int     `json:"edges"`
	MaxDegree int     `json:"max_degree"`
	AvgDegree float64 `json:"avg_degree"`

	Colors         int     `json:"colors"`
	ScheduleLength int     `json:"schedule_length"`
	Rate           float64 `json:"rate"`
	// Classes counts the dyadic length classes the lengthclass strategy
	// scheduled over (0 for single-graph strategies).
	Classes int `json:"length_classes,omitempty"`
	// ColorsPerLogStar normalizes the palette size by log*Δ, the paper's
	// target growth rate for global power control (Theorem 3).
	ColorsPerLogStar float64 `json:"colors_per_logstar"`
	// ColorsPerLogLog normalizes by log log Δ, the oblivious-power rate.
	ColorsPerLogLog float64 `json:"colors_per_loglog"`

	GammaUsed    float64 `json:"gamma_used"`
	GammaRetries int     `json:"gamma_retries"`
	// Margin is clamped to 1e30 so the record stays JSON-encodable when
	// the true margin is +Inf (singleton slots, zero noise).
	Margin     float64 `json:"margin"`
	Verified   bool    `json:"verified"`
	RefineSets int     `json:"refine_sets,omitempty"`

	Timings Timings `json:"timings"`
	Err     string  `json:"error,omitempty"`
}

const marginClamp = 1e30

// Run executes the full pipeline for one spec and reduces it to metrics.
// Failures are reported in Result.Err rather than aborting a batch. A ctx
// cancel or deadline stops the pipeline at the next stage, chunk, or slot
// boundary; the returned Result then carries the context error.
func Run(ctx context.Context, spec Spec) *Result {
	res, _ := runWS(ctx, spec, nil, nil)
	return res
}

// runWS is Run with an optional per-worker workspace and shared instance
// cache, returning the raw pipeline error alongside (so batch runners can
// distinguish a cancelled instance from a failed one).
func runWS(ctx context.Context, spec Spec, ws *Workspace, dc *DeployCache) (*Result, error) {
	_, res, err := newInstance(ctx, spec, ws, dc)
	if err != nil {
		if res == nil {
			name := ""
			if spec.Scenario != nil {
				name = spec.Scenario.PresetName()
			}
			res = &Result{
				Scenario: name,
				N:        spec.N, Seed: spec.Seed,
				Power: spec.Power, Graph: spec.Graph, Algo: spec.Algo,
			}
		}
		res.Err = err.Error()
	}
	return res, err
}

// NewInstance executes the full pipeline for one spec, returning both the
// materialized artifacts and the metric record. On error the partially
// filled Result (if any) is returned alongside. Cancellation: see Run.
func NewInstance(ctx context.Context, spec Spec) (*Instance, *Result, error) {
	return newInstance(ctx, spec, nil, nil)
}

// Workspace owns the per-worker scratch a batch runner reuses across
// instances: the coloring workspace today (conflict edge buffers and verify
// scratch recycle through package-level pools in their own layers). Not
// safe for concurrent use.
type Workspace struct {
	coloring *coloring.Workspace
}

// NewWorkspace returns an empty Workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	return &Workspace{coloring: coloring.NewWorkspace()}
}

func newInstance(ctx context.Context, spec Spec, ws *Workspace, dc *DeployCache) (*Instance, *Result, error) {
	if err := spec.CheckFinite(); err != nil {
		return nil, nil, err
	}
	spec = spec.normalized()
	if spec.Scenario == nil {
		return nil, nil, fmt.Errorf("experiment: spec has no scenario")
	}
	if spec.N < 2 {
		return nil, nil, fmt.Errorf("experiment: need n >= 2, got %d", spec.N)
	}
	if spec.Sink < 0 || spec.Sink >= spec.N {
		return nil, nil, fmt.Errorf("experiment: sink %d out of range [0, %d)", spec.Sink, spec.N)
	}
	if err := spec.SINR.Validate(); err != nil {
		return nil, nil, err
	}
	strat, err := scheduler.Lookup(spec.Algo)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{
		Scenario: spec.Scenario.PresetName(),
		N:        spec.N, Seed: spec.Seed,
		Power: spec.Power, Graph: spec.Graph, Algo: spec.Algo,
	}
	// Reject unknown graph kinds and verify engines before paying for
	// generation.
	if _, err := spec.config(spec.Gamma).ConflictFunc(); err != nil {
		return nil, res, err
	}
	if spec.VerifyEngine != schedule.EngineFast && spec.VerifyEngine != schedule.EngineNaive {
		return nil, res, fmt.Errorf("experiment: unknown verify engine %q (have %v)",
			spec.VerifyEngine, schedule.Engines())
	}
	// TotalSec is stamped on every exit path, so stage timings of a run
	// that failed mid-pipeline still come with their wall-clock total;
	// the engine work counters ride along the same way.
	var engStats sinr.EngineStats
	start := time.Now()
	defer func() {
		res.Timings.TotalSec = time.Since(start).Seconds()
		res.Timings.VerifyExactLinks = engStats.ExactLinks
		res.Timings.VerifyExactPairsFrac = engStats.ExactPairsFrac()
		res.Timings.VerifyRefinedCells = engStats.RefinedCells
	}()

	// Stage-boundary cancellation points: the stages themselves (conflict
	// build, verification) also check ctx at chunk/slot granularity, so a
	// cancel stops an instance within one chunk of work.
	// Deployment stages (generate, EMST), possibly shared: with an instance
	// cache the deployment comes from (or is published to) the batch-wide
	// DeployCache; cold runs build a private, uncached entry through the
	// exact same path.
	var dep *deployEntry
	if dc != nil && !spec.NoInstanceCache {
		dep, err = deployFor(ctx, spec, dc, &res.Timings)
		if err != nil {
			return nil, res, err
		}
	} else {
		if dep, err = buildDeploy(ctx, spec, &res.Timings); err != nil {
			return nil, res, err
		}
	}
	pts, tree := dep.pts, dep.tree

	links := tree.Links
	res.Links = len(links)
	div, err := geom.LinkDiversity(links)
	if err != nil {
		return nil, res, err
	}
	// Diversity is clamped so the record stays JSON-encodable when the true
	// ratio overflows float64 (subnormal shortest link vs huge longest);
	// Log2Diversity carries the unclamped truth in log space
	// (geom.LinkLog2Diversity), and log*/loglog are evaluated from the log2
	// form so they report the finite answer in exactly that regime.
	res.Diversity = math.Min(div, math.MaxFloat64)
	res.Log2Diversity, err = geom.LinkLog2Diversity(links)
	if err != nil {
		return nil, res, err
	}
	res.LogStar = stats.LogStarFromLog2(res.Log2Diversity)
	res.LogLog = stats.LogLogFromLog2(res.Log2Diversity)

	pf, err := spec.powerFunc(links)
	if err != nil {
		return nil, res, err
	}

	inst := &Instance{Spec: spec, Points: pts, Tree: tree, pf: pf}
	if spec.Verify && !spec.NoIncrementalVerify && spec.VerifyEngine == schedule.EngineFast {
		// One cache across all γ-escalation attempts: any slot the next
		// attempt's schedule shares with a previous one (same membership,
		// same powers) replays its exact margin instead of re-running the
		// engine.
		inst.vc = schedule.NewVerifyCache(spec.SINR)
	}
	gamma := spec.Gamma
	var la *conflict.Lookahead
	// Pre-power stage cache: with a shared deployment entry, the stage
	// product of each attempt (conflict build + ordering + coloring — the
	// schedule skeleton, everything before powers enter) is keyed under
	// (SchedKey, concrete γ) in the entry, so power-scheme-only spec
	// variants and γ-sweeps share one build per rung.
	schedCached := dc != nil && !spec.NoInstanceCache
	var skey string
	if schedCached {
		skey = SchedKey(spec)
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return inst, res, err
		}
		// buildStage is the cold stage body: arm the γ-lookahead and invoke
		// the strategy. The stage cache calls it on a miss; the uncached
		// path calls it directly — one code path either way, so cached
		// products are the exact objects a cold run builds.
		buildStage := func() (*schedule.Schedule, scheduler.Diag, error) {
			cfg := spec.config(gamma)
			if ws != nil {
				cfg.WS = ws.coloring
			}
			if !spec.NoLookahead {
				// γ-lookahead: arm (or re-arm, when escalation left the
				// window) a build ceiling Spec.GammaLookahead rungs above the
				// current γ, clamped to the rungs that can still occur. The
				// ceiling is computed by iterated multiplication — exactly how
				// the loop escalates γ — so every reachable rung compares
				// equal to it.
				if la == nil || gamma > la.GammaMax() {
					depth := spec.GammaLookahead
					if r := spec.MaxGammaRetries - attempt; r < depth {
						depth = r
					}
					top := gamma
					for i := 0; i < depth; i++ {
						top *= spec.GammaStep
					}
					// The deployment entry shares one Lookahead per ceiling,
					// so same-deployment specs pay the annotated build once; a
					// cold (uncached) entry degenerates to a private
					// Lookahead.
					la = dep.lookaheadFor(top)
				}
				cfg.Lookahead = la
			}
			return strat.Schedule(ctx, links, cfg)
		}
		var sched *schedule.Schedule
		var diag scheduler.Diag
		var reused bool
		if schedCached {
			sched, diag, reused, err = dc.schedFor(ctx, dep, schedGammaKey(skey, gamma), buildStage)
		} else {
			sched, diag, err = buildStage()
		}
		if err != nil {
			return nil, res, err
		}
		if reused {
			// The stage never ran in this instance: its build/order/color
			// seconds belong to the builder's Timings, not ours.
			res.Timings.SchedReused = true
		} else {
			// Stage timings accumulate across escalation attempts so that
			// they still sum to TotalSec when verification forces a rebuild.
			res.Timings.BuildSec += diag.BuildSec
			res.Timings.BuildFilterSec += diag.BuildFilterSec
			if diag.BuildReused {
				res.Timings.BuildReused = true
			}
			res.Timings.OrderSec += diag.OrderSec
			res.Timings.ColorSec += diag.ColorSec
			res.Timings.BuildCellsScanned += diag.BuildStats.CellsScanned
			res.Timings.BuildCellsPruned += diag.BuildStats.CellsPruned
			res.Timings.BuildCandScanned += diag.BuildStats.CandScanned
			res.Timings.BuildCandAccepted += diag.BuildStats.CandAccepted
		}

		inst.Graph, inst.Colors, inst.Schedule, inst.Diag = diag.Graph, diag.Colors, sched, diag
		inst.GammaUsed, inst.GammaRetries = gamma, attempt
		res.Edges = diag.Edges
		res.MaxDegree = diag.MaxDegree
		res.AvgDegree = diag.AvgDegree
		res.Colors = diag.NumColors
		res.Classes = diag.Classes
		// The lengthclass strategy's per-class Theorem-2 split; the explicit
		// Spec.Refine diagnostic below overwrites this with the global
		// refinement when requested.
		res.RefineSets = diag.RefineSets
		res.ScheduleLength = sched.Period()
		res.Rate = sched.Rate()
		res.GammaUsed = gamma
		res.GammaRetries = attempt
		res.ColorsPerLogStar = float64(diag.NumColors) / math.Max(1, float64(res.LogStar))
		res.ColorsPerLogLog = float64(diag.NumColors) / math.Max(1, res.LogLog)

		if !spec.Verify {
			break
		}
		t0 := time.Now()
		var margin float64
		var verr error
		if spec.VerifyEngine == schedule.EngineNaive {
			margin, verr = sched.VerifySINRNaive(spec.SINR, pf)
		} else {
			var vst schedule.VerifyStats
			margin, vst, verr = sched.VerifySINRDelta(ctx, spec.SINR, pf, inst.vc)
			engStats.Add(vst.Engine)
			res.Timings.PowerSolveSec += vst.PowerSec
			res.Timings.VerifyReusedSlots += int64(vst.ReusedSlots)
			res.Timings.VerifyGridReused += int64(vst.ReusedGrids)
			inst.VerifyStats = vst
		}
		res.Timings.VerifySec += time.Since(t0).Seconds()
		if verr != nil && ctx.Err() != nil {
			// Cancelled mid-verification: no verdict was reached, so this is
			// not a feasibility failure — surface the context error rather
			// than escalating γ.
			return inst, res, ctx.Err()
		}
		if verr == nil {
			inst.Margin = margin
			res.Margin = math.Min(margin, marginClamp)
			res.Verified = true
			break
		}
		if attempt >= spec.MaxGammaRetries {
			return inst, res, fmt.Errorf("experiment: schedule still infeasible after %d gamma escalations (gamma=%.3g): %w",
				attempt, gamma, verr)
		}
		gamma *= spec.GammaStep
	}

	if spec.Refine {
		t0 := time.Now()
		sets := coloring.Refine(links, spec.SINR)
		res.Timings.RefineSec = time.Since(t0).Seconds()
		if err := coloring.VerifyRefinement(links, sets, spec.SINR); err != nil {
			return inst, res, err
		}
		inst.RefineSets = sets
		res.RefineSets = len(sets)
	}
	return inst, res, nil
}

// Runner executes spec batches over a worker pool, emitting each Result to
// the Sink as it completes. Each worker owns one reusable Workspace that
// survives across the instances it runs, so batch throughput stops paying
// the per-instance scratch allocation (coloring buffers here; conflict edge
// buffers and verification scratch recycle through their packages' pools).
type Runner struct {
	// Workers is the pool width (<= 0 means GOMAXPROCS, clamped to the
	// batch size).
	Workers int
	// Sink, when non-nil, receives (spec index, result) for every instance
	// that ran to completion — success or failure, but never an instance
	// aborted by the batch context. Calls are serialized (no internal
	// locking needed) but arrive in completion order, not spec order;
	// callers needing deterministic output must reorder by index.
	Sink func(i int, r *Result)
	// Drain, when non-nil, is a soft-stop signal: once it is cancelled,
	// workers stop claiming new specs but in-flight instances run to
	// completion (and still reach the Sink). This is the graceful-shutdown
	// hook of the serving layer — the batch stops at the next spec boundary
	// instead of discarding partially computed instances the way a ctx
	// cancel does.
	Drain context.Context
	// Deploy is the stage-split instance cache shared by the batch: specs
	// with equal DeployKeys (same scenario, n, seed, sink) share one
	// generation + EMST + lookahead build. Nil means Run creates a private
	// cache per batch — the compare-grid case — so sharing is on by
	// default; individual specs opt out via Spec.NoInstanceCache. The
	// serving layer installs a server-wide cache here instead.
	Deploy *DeployCache
}

// Run executes the specs and returns results in spec order — deterministic
// in the specs regardless of worker count or scheduling, since every
// instance is seeded independently. On cancellation it stops claiming new
// specs, lets in-flight instances unwind at their next chunk boundary, and
// returns ctx.Err() with the partial result set: entries for instances that
// never ran (or were aborted mid-flight) are nil.
func (r *Runner) Run(ctx context.Context, specs []Spec) ([]*Result, error) {
	workers := Workers(r.Workers, len(specs))
	dc := r.Deploy
	if dc == nil {
		dc = NewDeployCache(0)
	}
	out := make([]*Result, len(specs))
	var cursor atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace()
			for ctx.Err() == nil {
				if r.Drain != nil && r.Drain.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				res, err := runWS(ctx, specs[i], ws, dc)
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					// Aborted mid-instance: not a completed result.
					return
				}
				mu.Lock()
				out[i] = res
				if r.Sink != nil {
					r.Sink(i, res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// RunBatch executes the specs over a pool of workers goroutines (GOMAXPROCS
// when workers <= 0) and returns results in spec order. On cancellation the
// returned slice is partial — nil entries mark instances that never
// completed. Streaming consumers should use Runner directly.
func RunBatch(ctx context.Context, specs []Spec, workers int) []*Result {
	out, _ := (&Runner{Workers: workers}).Run(ctx, specs)
	return out
}

// Workers resolves a requested worker count to the one RunBatch will
// actually use: GOMAXPROCS when workers <= 0, clamped to the job count.
func Workers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}

// Expand builds the (scenario × n × seed × power × algo) cross product of
// specs, using base for every non-product field. Seeds are base.Seed,
// base.Seed+1, …, base.Seed+seeds-1, so the algorithms of one cell run on
// identical instances.
func Expand(scenarios []Scenario, ns []int, seeds int, powers, algos []string, base Spec) []Spec {
	if seeds < 1 {
		seeds = 1
	}
	if len(powers) == 0 {
		powers = []string{base.normalized().Power}
	}
	if len(algos) == 0 {
		algos = []string{base.normalized().Algo}
	}
	specs := make([]Spec, 0, len(scenarios)*len(ns)*seeds*len(powers)*len(algos))
	for _, sc := range scenarios {
		for _, n := range ns {
			for _, pw := range powers {
				for _, al := range algos {
					for s := 0; s < seeds; s++ {
						sp := base
						sp.Scenario = sc
						sp.N = n
						sp.Power = pw
						sp.Algo = al
						sp.Seed = base.Seed + uint64(s)
						specs = append(specs, sp)
					}
				}
			}
		}
	}
	return specs
}

// Summary aggregates the results of one (scenario, n, power, graph, algo)
// cell across seeds.
type Summary struct {
	Scenario string `json:"scenario"`
	N        int    `json:"n"`
	Power    string `json:"power"`
	Graph    string `json:"graph"`
	Algo     string `json:"algo"`
	Seeds    int    `json:"seeds"`
	Errors   int    `json:"errors"`

	MeanColors   float64 `json:"mean_colors"`
	MinColors    float64 `json:"min_colors"`
	MaxColors    float64 `json:"max_colors"`
	StdColors    float64 `json:"std_colors"`
	MeanLength   float64 `json:"mean_schedule_length"`
	MeanRate     float64 `json:"mean_rate"`
	MeanEdges    float64 `json:"mean_edges"`
	MeanMargin   float64 `json:"mean_margin"`
	MeanGamma    float64 `json:"mean_gamma_used"`
	MedDiversity float64 `json:"median_diversity"`
	MeanLogStar  float64 `json:"mean_logstar"`
	// MeanColorsPerLogStar is the paper's headline normalized rate.
	MeanColorsPerLogStar float64 `json:"mean_colors_per_logstar"`
	MeanTotalSec         float64 `json:"mean_total_sec"`
}

// Aggregate groups results by (scenario, n, power, graph, algo) and reduces
// each group with internal/stats. Failed results count toward Errors and are
// excluded from the numeric reductions. Groups come back in deterministic
// sorted order.
func Aggregate(results []*Result) []Summary {
	type key struct {
		Scenario string
		N        int
		Power    string
		Graph    string
		Algo     string
	}
	groups := make(map[key][]*Result)
	for _, r := range results {
		if r == nil {
			continue
		}
		k := key{r.Scenario, r.N, r.Power, r.Graph, r.Algo}
		groups[k] = append(groups[k], r)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.Scenario != kb.Scenario {
			return ka.Scenario < kb.Scenario
		}
		if ka.N != kb.N {
			return ka.N < kb.N
		}
		if ka.Power != kb.Power {
			return ka.Power < kb.Power
		}
		if ka.Graph != kb.Graph {
			return ka.Graph < kb.Graph
		}
		return ka.Algo < kb.Algo
	})
	out := make([]Summary, 0, len(keys))
	for _, k := range keys {
		rs := groups[k]
		s := Summary{Scenario: k.Scenario, N: k.N, Power: k.Power, Graph: k.Graph, Algo: k.Algo, Seeds: len(rs)}
		var colors, lengths, rates, edges, margins, gammas, divs, logstars, cpls, totals []float64
		for _, r := range rs {
			if r.Err != "" {
				s.Errors++
				continue
			}
			colors = append(colors, float64(r.Colors))
			lengths = append(lengths, float64(r.ScheduleLength))
			rates = append(rates, r.Rate)
			edges = append(edges, float64(r.Edges))
			// Margins are only measured when verification ran. Clamped
			// margins stand in for +Inf (singleton slots under zero noise);
			// averaging the 1e30 sentinel would drown real margins.
			if r.Verified && r.Margin < marginClamp {
				margins = append(margins, r.Margin)
			}
			gammas = append(gammas, r.GammaUsed)
			divs = append(divs, r.Diversity)
			// LogStarUndefined (-1) marks a non-finite diversity; averaging
			// the sentinel (or a normalization clamped against it) into the
			// summary would corrupt it, so such rows are left out of both
			// log*-derived reductions.
			if r.LogStar != stats.LogStarUndefined {
				logstars = append(logstars, float64(r.LogStar))
				cpls = append(cpls, r.ColorsPerLogStar)
			}
			totals = append(totals, r.Timings.TotalSec)
		}
		if len(colors) > 0 {
			s.MeanColors = stats.Mean(colors)
			s.MinColors = stats.Min(colors)
			s.MaxColors = stats.Max(colors)
			s.StdColors = stats.StdDev(colors)
			s.MeanLength = stats.Mean(lengths)
			s.MeanRate = stats.Mean(rates)
			s.MeanEdges = stats.Mean(edges)
			s.MeanMargin = stats.Mean(margins)
			s.MeanGamma = stats.Mean(gammas)
			s.MedDiversity = stats.Median(divs)
			s.MeanLogStar = stats.Mean(logstars)
			s.MeanColorsPerLogStar = stats.Mean(cpls)
			s.MeanTotalSec = stats.Mean(totals)
		}
		out = append(out, s)
	}
	return out
}
