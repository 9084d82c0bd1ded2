package main

import (
	"sort"

	"aggrate/internal/stats"
)

// layerRow is one line of the per-layer table: every span of one name,
// with its total self time. The rows of a replay sum to its total time; the
// root spans' self time is the unattributed remainder.
type layerRow struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	SelfS float64 `json:"self_s"`
}

const mb = 1 << 20

// layerReport reduces a replay's spans and counters to the per-layer
// metrics named in BENCHMARK.json (the replay-derived ones), the per-layer
// table, and the unattributed fraction: the largest share of a spec's time
// outside every layer span, over the specs that ran at least
// minJudgedSpecS, or over all specs together if that share is larger.
func layerReport(spans []span, c counters) (map[string]float64, []layerRow, float64) {
	self := selfTimes(spans)
	type agg struct {
		calls      int
		self       float64
		alloc      uint64
		counterSum map[string]float64
	}
	by := make(map[string]*agg)
	var specDur []float64
	var worst, rootSelf, rootDur float64
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{counterSum: make(map[string]float64)}
			by[s.Name] = a
		}
		a.calls++
		a.self += self[s.ID]
		a.alloc += s.AllocBytes
		for k, v := range s.Counters {
			a.counterSum[k] += v
		}
		if s.Parent == 0 {
			d := s.dur()
			specDur = append(specDur, d)
			rootSelf += self[s.ID]
			rootDur += d
			if d >= minJudgedSpecS && self[s.ID]/d > worst {
				worst = self[s.ID] / d
			}
		}
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{counterSum: map[string]float64{}}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	worst = max(worst, ratio(rootSelf, rootDur))
	build, filter := get("conflict.build"), get("conflict.filter")
	verify := get("schedule.verify")
	m := map[string]float64{
		"scenario.gen_s": get("scenario.gen").self,

		"mst.emst_s":   get("mst.emst").self,
		"mst.tree_s":   get("mst.tree").self,
		"mst.alloc_mb": float64(get("mst.emst").alloc+get("mst.tree").alloc) / mb,

		"conflict.build_s":           build.self,
		"conflict.builds":            float64(build.calls),
		"conflict.filter_s":          filter.self,
		"conflict.filters":           float64(filter.calls),
		"conflict.edges":             float64(c.candAccepted),
		"conflict.cand_scanned":      float64(c.candScanned),
		"conflict.cand_per_edge":     ratio(float64(c.candScanned), float64(c.candAccepted)),
		"conflict.cells_pruned_frac": ratio(build.counterSum["cells_pruned"], build.counterSum["cells_pruned"]+build.counterSum["cells_scanned"]),
		"conflict.ns_per_cand":       ratio(build.self*1e9, build.counterSum["cand_scanned"]),
		"conflict.alloc_mb":          float64(build.alloc+filter.alloc) / mb,

		"coloring.order_s":  get("coloring.order").self,
		"coloring.color_s":  get("coloring.color").self,
		"coloring.alloc_mb": float64(get("coloring.order").alloc+get("coloring.color").alloc) / mb,

		"scheduler.schedule_s": get("scheduler.schedule").self,

		"power.assign_s":             get("power.assign").self,
		"power.solve_s":              get("power.solve").self,
		"power.solve_calls":          float64(c.solveCalls),
		"power.solve_links":          float64(c.solveLinks),
		"schedule.assemble_s":        get("schedule.assemble").self,
		"schedule.verify_s":          verify.self,
		"schedule.verify_calls":      float64(c.verifyCalls),
		"schedule.verify_failed":     float64(c.verifyFailed),
		"schedule.exact_pairs_frac":  c.engine.ExactPairsFrac(),
		"schedule.ns_per_pair":       ratio(verify.self*1e9, float64(c.engine.ExactPairs+c.engine.NearPairs)),
		"schedule.reused_slots_frac": ratio(float64(c.reusedSlots), float64(c.verifySlots)),
		"schedule.reused_grids":      float64(c.reusedGrids),
		"schedule.refined_cells":     float64(c.engine.RefinedCells),
		"schedule.alloc_mb":          float64(get("schedule.assemble").alloc+verify.alloc) / mb,

		"experiment.deploy_hit_frac": ratio(float64(c.deployHits), float64(c.specs)),
		"experiment.sched_hit_frac":  ratio(float64(c.stageHits), float64(c.attempts)),
		"experiment.spec_p50_s":      stats.Median(specDur),

		"trace.unattributed_frac": worst,
	}
	rows := make([]layerRow, 0, len(by))
	for name, a := range by {
		n := name
		if n == "spec" {
			n = "unattributed"
		}
		rows = append(rows, layerRow{Name: n, Calls: a.calls, SelfS: a.self})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	return m, rows, worst
}
