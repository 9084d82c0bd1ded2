package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"aggrate/internal/coloring"
	"aggrate/internal/conflict"
	"aggrate/internal/experiment"
	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/power"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
	"aggrate/internal/sinr"
)

// The replay re-runs experiment.Runner's pipeline (newInstance with
// Workers=1) by calling each layer's public functions itself, so every call
// becomes a span without touching production code. It mirrors the parts
// that decide what work runs: the γ-escalation loop, the γ-lookahead
// ceiling (armed only when a stage is built), the DeployCache LRU keyed by
// experiment.DeployKey, and the stage memo keyed by experiment.SchedKey and
// the attempt's γ. A cache answer is an experiment.deploy or
// experiment.stage span with no children. The fidelity test pins the
// replay's outcomes and build counters to the Runner's.

// jpSeed is scheduler's fixed Jones–Plassmann priority seed; the fidelity
// test fails if the two ever drift apart.
const jpSeed = 0x51ce5e11a9b6d7c3

// marginClamp mirrors experiment's clamp of +Inf margins.
const marginClamp = 1e30

// replayer holds the per-run state a Runner with one worker keeps: one
// coloring workspace and the deployment cache.
type replayer struct {
	rec  *recorder
	ws   *coloring.Workspace
	deps []*deployment // most recently used first
	tot  counters
}

// deployment mirrors one DeployCache entry.
type deployment struct {
	key  string
	tree *mst.Tree
	// annotated holds the strength-annotated builds the single-graph
	// strategies filter, keyed like conflict.Lookahead's entries.
	annotated map[annotKey]*conflict.Graph
	// las serves the strategies timed whole (lengthclass, naive), which
	// take a conflict.Lookahead through scheduler.Config.
	las    map[float64]*conflict.Lookahead
	stages map[string]stage
}

type annotKey struct {
	top    float64
	family string
}

// stage is one pre-power stage product, shared by specs that differ only
// in power scheme or initial γ.
type stage struct {
	sched     *schedule.Schedule
	numColors int
	edges     int
	stats     conflict.BuildStats
}

// counters are the replay's work counts. Build counters sum per attempt
// the way experiment.Timings does (a filtered graph reports its annotated
// build's counters), so the fidelity test can compare them directly.
type counters struct {
	specs, deployHits         int
	attempts, stageHits       int
	verifyCalls, verifyFailed int
	candScanned, candAccepted int64
	solveCalls, solveLinks    int64
	verifySlots, reusedSlots  int
	reusedGrids               int64
	engine                    sinr.EngineStats
}

func newReplayer() *replayer {
	return &replayer{rec: newRecorder(), ws: coloring.NewWorkspace()}
}

// deployment returns the cached deployment of spec or builds it. One
// experiment.deploy span covers the cache key and lookup; on a miss it
// parents the scenario.gen, mst.emst and mst.tree spans.
func (r *replayer) deployment(ctx context.Context, spec experiment.Spec, trace, root int) (*deployment, error) {
	span := r.rec.begin(trace, root, "experiment.deploy")
	key := experiment.DeployKey(spec)
	for i, d := range r.deps {
		if d.key == key {
			copy(r.deps[1:i+1], r.deps[:i])
			r.deps[0] = d
			r.tot.deployHits++
			r.rec.end(span, map[string]float64{"hit": 1})
			return d, nil
		}
	}
	defer r.rec.end(span, map[string]float64{"hit": 0})
	id := r.rec.begin(trace, span, "scenario.gen")
	pts := spec.Scenario.Generate(spec.N, spec.Seed)
	r.rec.end(id, map[string]float64{"points": float64(len(pts))})

	id = r.rec.begin(trace, span, "mst.emst")
	edges, err := mst.EMSTCtx(ctx, pts)
	r.rec.end(id, nil)
	if err != nil {
		return nil, fmt.Errorf("experiment: mst: %w", err)
	}
	id = r.rec.begin(trace, span, "mst.tree")
	tree, err := mst.Build(pts, edges, spec.Sink)
	r.rec.end(id, nil)
	if err != nil {
		return nil, fmt.Errorf("experiment: mst: %w", err)
	}
	d := &deployment{
		key: key, tree: tree,
		annotated: make(map[annotKey]*conflict.Graph),
		las:       make(map[float64]*conflict.Lookahead),
		stages:    make(map[string]stage),
	}
	r.deps = append([]*deployment{d}, r.deps...)
	if len(r.deps) > experiment.DefaultDeployCacheEntries {
		r.deps = r.deps[:experiment.DefaultDeployCacheEntries]
	}
	return d, nil
}

// powerFunc mirrors experiment's slot-power supplier: one oblivious
// assignment up front (power.assign), or a per-instance memo of global
// power solves keyed by slot content (one power.solve span per solve).
func (r *replayer) powerFunc(spec experiment.Spec, links []geom.Link, trace, root int, verifySpan *int) (schedule.PowerFunc, error) {
	var sch power.Scheme
	switch spec.Power {
	case experiment.PowerUniform:
		sch = power.Uniform()
	case experiment.PowerMean:
		sch = power.Mean()
	case experiment.PowerLinear:
		sch = power.Linear()
	case experiment.PowerGlobal:
		var mu sync.Mutex
		cache := make(map[string][]float64)
		return func(_ int, linkIdx []int) ([]float64, error) {
			raw := make([]byte, 0, 4*len(linkIdx))
			for _, i := range linkIdx {
				raw = append(raw, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
			}
			key := string(raw)
			mu.Lock()
			v, ok := cache[key]
			mu.Unlock()
			if ok {
				return v, nil
			}
			slot := make([]geom.Link, len(linkIdx))
			for k, i := range linkIdx {
				slot[k] = links[i]
			}
			id := r.rec.begin(trace, *verifySpan, "power.solve")
			out, err := power.Solve(slot, spec.SINR, power.SolveOptions{})
			r.rec.end(id, map[string]float64{"links": float64(len(slot))})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			cache[key] = out
			r.tot.solveCalls++
			r.tot.solveLinks += int64(len(slot))
			mu.Unlock()
			return out, nil
		}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown power scheme %q", spec.Power)
	}
	id := r.rec.begin(trace, root, "power.assign")
	perLink, err := sch.Assign(links, spec.SINR)
	r.rec.end(id, nil)
	if err != nil {
		return nil, err
	}
	return schedule.FixedPower(perLink), nil
}

// graphFor mirrors conflict.Lookahead.GraphFor for the single-graph
// strategies: one annotated build per (ceiling, family), filtered down to
// γ below the ceiling.
func (r *replayer) graphFor(ctx context.Context, d *deployment, links []geom.Link, fam conflict.Family,
	gamma, top float64, trace, root int) (*conflict.Graph, error) {
	k := annotKey{top, fam.Name}
	full := d.annotated[k]
	if full == nil {
		id := r.rec.begin(trace, root, "conflict.build")
		g, err := conflict.BuildLookaheadCtx(ctx, links, fam, top)
		if err != nil {
			r.rec.end(id, nil)
			return nil, err
		}
		r.rec.end(id, map[string]float64{
			"cand_scanned":  float64(g.Stats.CandScanned),
			"cand_accepted": float64(g.Stats.CandAccepted),
			"cells_scanned": float64(g.Stats.CellsScanned),
			"cells_pruned":  float64(g.Stats.CellsPruned),
		})
		full = g
		d.annotated[k] = full
	}
	if gamma == top {
		return full, nil
	}
	id := r.rec.begin(trace, root, "conflict.filter")
	g, err := full.FilterCtx(ctx, fam.At(gamma), gamma)
	r.rec.end(id, nil)
	return g, err
}

// buildStage runs one escalation attempt's pre-power stage: conflict graph,
// vertex order, coloring and schedule assembly for the single-graph
// strategies, or one scheduler.schedule span for the strategies timed whole.
func (r *replayer) buildStage(ctx context.Context, spec experiment.Spec, d *deployment, links []geom.Link,
	gamma, top float64, trace, root int) (stage, error) {
	cfg := scheduler.Config{Graph: spec.Graph, Gamma: gamma, Delta: spec.Delta, SINR: spec.SINR, WS: r.ws}
	fam, err := cfg.ConflictFamily()
	if err != nil {
		return stage{}, err
	}
	if spec.Algo == scheduler.LengthClass || spec.Algo == scheduler.Naive {
		la := d.las[top]
		if la == nil {
			la = conflict.NewLookahead(top)
			d.las[top] = la
		}
		cfg.Lookahead = la
		strat, err := scheduler.Lookup(spec.Algo)
		if err != nil {
			return stage{}, err
		}
		id := r.rec.begin(trace, root, "scheduler.schedule")
		sched, diag, err := strat.Schedule(ctx, links, cfg)
		r.rec.end(id, map[string]float64{"cand_scanned": float64(diag.BuildStats.CandScanned)})
		if err != nil {
			return stage{}, err
		}
		return stage{sched: sched, numColors: diag.NumColors, edges: diag.Edges, stats: diag.BuildStats}, nil
	}

	g, err := r.graphFor(ctx, d, links, fam, gamma, top, trace, root)
	if err != nil {
		return stage{}, err
	}
	colors := make([]int, g.N())
	var numColors int
	switch spec.Algo {
	case scheduler.Greedy:
		id := r.rec.begin(trace, root, "coloring.order")
		order := r.ws.LengthOrder(g)
		r.rec.end(id, nil)
		id = r.rec.begin(trace, root, "coloring.color")
		numColors = r.ws.FirstFit(g, order, colors)
		r.rec.end(id, nil)
	case scheduler.DSatur:
		id := r.rec.begin(trace, root, "coloring.color")
		numColors = r.ws.DSatur(g, colors)
		r.rec.end(id, nil)
	case scheduler.JP:
		id := r.rec.begin(trace, root, "coloring.color")
		numColors = r.ws.JP(g, jpSeed, colors)
		r.rec.end(id, nil)
	default:
		return stage{}, fmt.Errorf("replay: unknown algorithm %q", spec.Algo)
	}
	id := r.rec.begin(trace, root, "schedule.assemble")
	sched, err := schedule.FromColoring(links, colors)
	r.rec.end(id, nil)
	if err != nil {
		return stage{}, err
	}
	return stage{sched: sched, numColors: numColors, edges: g.Edges(), stats: g.Stats}, nil
}

// run replays one spec under trace id trace and returns its outcome.
func (r *replayer) run(ctx context.Context, spec experiment.Spec, trace int) outcome {
	spec = spec.Normalized()
	out := outcome{Label: label(spec), Key: experiment.SpecKey(spec)}
	root := r.rec.begin(trace, 0, "spec")
	err := r.runSpec(ctx, spec, trace, root, &out)
	r.rec.end(root, nil)
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

func (r *replayer) runSpec(ctx context.Context, spec experiment.Spec, trace, root int, out *outcome) error {
	if spec.Refine || !spec.Verify || spec.VerifyEngine != schedule.EngineFast || spec.NoLookahead ||
		spec.NoIncrementalVerify || spec.NoInstanceCache {
		return fmt.Errorf("replay: spec %s uses a path the replay does not mirror", out.Label)
	}
	r.tot.specs++
	d, err := r.deployment(ctx, spec, trace, root)
	if err != nil {
		return err
	}
	links := d.tree.Links
	verifySpan := 0
	pf, err := r.powerFunc(spec, links, trace, root, &verifySpan)
	if err != nil {
		return err
	}
	var vc *schedule.VerifyCache
	var skey string
	gamma, top := spec.Gamma, 0.0
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.tot.attempts++
		// One experiment.stage span per attempt covers the stage cache
		// lookup; on a miss it parents the stage's layer spans.
		stageSpan := r.rec.begin(trace, root, "experiment.stage")
		if attempt == 0 {
			skey = experiment.SchedKey(spec)
		}
		key := skey + "|" + strconv.FormatFloat(gamma, 'x', -1, 64)
		st, hit := d.stages[key]
		if hit {
			r.tot.stageHits++
		} else {
			// The lookahead ceiling is armed (or re-armed past it) only when a
			// stage is built, exactly as experiment's buildStage does.
			if top == 0 || gamma > top {
				depth := min(spec.GammaLookahead, spec.MaxGammaRetries-attempt)
				top = gamma
				for i := 0; i < depth; i++ {
					top *= spec.GammaStep
				}
			}
			st, err = r.buildStage(ctx, spec, d, links, gamma, top, trace, stageSpan)
			if err != nil {
				r.rec.end(stageSpan, nil)
				return err
			}
			d.stages[key] = st
			r.tot.candScanned += st.stats.CandScanned
			r.tot.candAccepted += st.stats.CandAccepted
		}
		r.rec.end(stageSpan, map[string]float64{"hit": b2f(hit)})
		out.Colors, out.Slots, out.Edges = st.numColors, st.sched.Period(), st.edges
		out.Gamma, out.Retries = gamma, attempt

		verifySpan = r.rec.begin(trace, root, "schedule.verify")
		if vc == nil {
			vc = schedule.NewVerifyCache(spec.SINR)
		}
		margin, vst, verr := st.sched.VerifySINRDelta(ctx, spec.SINR, pf, vc)
		r.rec.end(verifySpan, map[string]float64{
			"slots": float64(vst.Slots), "reused_slots": float64(vst.ReusedSlots),
			"exact_pairs": float64(vst.Engine.ExactPairs), "near_pairs": float64(vst.Engine.NearPairs),
			"failed": b2f(verr != nil),
		})
		r.tot.verifyCalls++
		r.tot.verifySlots += vst.Slots
		r.tot.reusedSlots += vst.ReusedSlots
		r.tot.reusedGrids += int64(vst.ReusedGrids)
		r.tot.engine.Add(vst.Engine)
		if verr != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if verr == nil {
			out.Margin = hexFloat(math.Min(margin, marginClamp))
			out.Verified = true
			return nil
		}
		r.tot.verifyFailed++
		if attempt >= spec.MaxGammaRetries {
			return fmt.Errorf("experiment: schedule still infeasible after %d gamma escalations (gamma=%.3g): %w",
				attempt, gamma, verr)
		}
		gamma *= spec.GammaStep
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
