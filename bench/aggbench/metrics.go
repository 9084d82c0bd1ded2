package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"aggrate/internal/stats"
)

// metricDef names a metric and its unit. The names are the ones
// BENCHMARK.json and README.md refer to.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of aggrate sees, printed by every untraced
// run. More are printed but stay out of the JSON metrics: failed_frac,
// which is 0 on a healthy run (the JSON's "failed" field carries it), and
// the job latency percentiles, whose run-to-run spread on a noisy host is
// wider than any regression bound could be (see README.md).
var endToEnd = []metricDef{
	{"certify_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"slots_total", "slots"},
}

// perLayer are the metrics of a traced run, one group per package.
var perLayer = []metricDef{
	{"scenario.gen_s", "s"},

	{"mst.emst_s", "s"},
	{"mst.tree_s", "s"},
	{"mst.alloc_mb", "MB"},

	{"conflict.build_s", "s"},
	{"conflict.builds", "count"},
	{"conflict.filter_s", "s"},
	{"conflict.filters", "count"},
	{"conflict.edges", "count"},
	{"conflict.cand_scanned", "count"},
	{"conflict.cand_per_edge", "cand/edge"},
	{"conflict.cells_pruned_frac", "fraction"},
	{"conflict.ns_per_cand", "ns"},
	{"conflict.alloc_mb", "MB"},

	{"coloring.order_s", "s"},
	{"coloring.color_s", "s"},
	{"coloring.alloc_mb", "MB"},

	{"scheduler.schedule_s", "s"},

	{"power.assign_s", "s"},
	{"power.solve_s", "s"},
	{"power.solve_calls", "count"},
	{"power.solve_links", "count"},

	{"schedule.assemble_s", "s"},
	{"schedule.verify_s", "s"},
	{"schedule.verify_calls", "count"},
	{"schedule.verify_failed", "count"},
	{"schedule.exact_pairs_frac", "fraction"},
	{"schedule.ns_per_pair", "ns"},
	{"schedule.reused_slots_frac", "fraction"},
	{"schedule.reused_grids", "count"},
	{"schedule.refined_cells", "count"},
	{"schedule.alloc_mb", "MB"},

	{"sinr.kernel_ns_per_pair", "ns"},

	{"experiment.deploy_hit_frac", "fraction"},
	{"experiment.sched_hit_frac", "fraction"},
	{"experiment.spec_p50_s", "s"},
	{"experiment.cpu_util", "fraction"},

	{"service.job_p50_s", "s"},
	{"service.job_p90_s", "s"},
	{"service.submit_p50_s", "s"},
	{"service.queue_wait_p50_s", "s"},
	{"service.queue_wait_p90_s", "s"},
	{"service.run_p50_s", "s"},
	{"service.result_hit_frac", "fraction"},
	{"service.instance_hit_frac", "fraction"},
	{"service.sched_hit_frac", "fraction"},
	{"service.fsyncs_per_job", "count"},
	{"service.rejected", "count"},

	{"trace.unattributed_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// maxUnattributed is the share of a spec's time the replay may leave
// outside every layer span before the traced run fails.
const maxUnattributed = 0.05

// minJudgedSpecS is the shortest spec (seconds) whose unattributed share is
// judged on its own; shorter specs are judged together, by the
// unattributed share of all specs. A stall of the whole process (a
// stop-the-world pause stretched by the host taking a vCPU away) has been
// seen to last 17 ms, and when it falls between two spans it is
// unattributed time that no code caused.
const minJudgedSpecS = 1.0

// sample is one metric's value and, where the value is a median over
// repetitions, the repetition values behind it.
type sample struct {
	value float64
	reps  []float64
}

func median(xs []float64) sample { return sample{value: stats.Median(xs), reps: xs} }

func one(v float64) sample { return sample{value: v} }

// runResult is one workload run: what was checked and what was measured.
type runResult struct {
	workload          string
	attempted, failed int
	values            map[string]sample
	notes             []string // extra human-readable lines
	table             []layerRow
}

// render prints the human-readable table of the metrics in defs.
func (r runResult) render(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed (failed_frac %.4g)\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, d := range defs {
		s := r.values[d.name]
		if len(s.reps) > 1 {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\tmin %.6g\tmedian %.6g\tmax %.6g\tn=%d\n", d.name, s.value, d.unit,
				stats.Min(s.reps), stats.Median(s.reps), stats.Max(s.reps), len(s.reps))
		} else {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.name, s.value, d.unit)
		}
	}
	tw.Flush()
	if len(r.table) > 0 {
		total := 0.0
		for _, row := range r.table {
			total += row.SelfS
		}
		fmt.Fprintf(w, "-- per-layer self time (sums to the replay total %.4gs)\n", total)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, row := range r.table {
			fmt.Fprintf(tw, "%s\t%d calls\t%.4fs\t%.1f%%\n", row.Name, row.Calls, row.SelfS, 100*row.SelfS/math.Max(total, 1e-12))
		}
		tw.Flush()
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line with every metric in defs. A metric that is
// missing or not finite is an error, never a silent zero in the record.
func (r runResult) emit(defs []metricDef) error {
	line := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		s, ok := r.values[d.name]
		if !ok || math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite", r.workload, d.name)
		}
		line.Metrics[d.name] = metricValue{Value: s.value, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}
