package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"aggrate/internal/sinr"
	"aggrate/internal/stats"
)

// setupSamples is how many spawn-to-ready set-up times a run collects. An
// in-process run counts its repetitions and makes up the rest with probe
// children; serve-mix boots that many servers. Each takes a few
// milliseconds, and their median is steadier than a handful's.
const setupSamples = 15

// newChecker returns a checker that compares against the committed goldens
// at the default seed and full size, and skips them otherwise.
func newChecker(o options, w workload) (*checker, error) {
	c := &checker{}
	if o.seed != defaultSeed || o.toy {
		return c, nil
	}
	g, err := loadExpected(expectedDir, w.name)
	if err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	c.golden = g
	return c, nil
}

// measureInProcess is the untraced closed loop of an in-process workload:
// repetitions in fresh child processes until the run length has passed, so
// a run measures at least that long. Each metric is the median over the
// repetitions.
func measureInProcess(ctx context.Context, o options, w workload) (runResult, error) {
	chk, err := newChecker(o, w)
	if err != nil {
		return runResult{}, err
	}
	var certify, p50, p90, cpu, rss, setup []float64
	var first []outcome
	start := time.Now()
	for {
		run, err := spawnChild(ctx, o, w, modeRunner, "")
		if err != nil {
			return runResult{}, err
		}
		rep := run.report
		for i, oc := range rep.Outcomes {
			chk.check(oc)
			if first != nil {
				chk.same("repetition", oc, first[i])
			}
		}
		if first == nil {
			first = rep.Outcomes
		}
		certify = append(certify, rep.CertifyS)
		p50 = append(p50, stats.Percentile(rep.DoneS, 50))
		p90 = append(p90, stats.Percentile(rep.DoneS, 90))
		cpu = append(cpu, run.cpuS)
		rss = append(rss, run.rssMB)
		setup = append(setup, run.setupS)
		if time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	for len(setup) < setupSamples {
		run, err := spawnChild(ctx, o, w, modeProbe, "")
		if err != nil {
			return runResult{}, err
		}
		setup = append(setup, run.setupS)
	}
	slots := 0
	for _, oc := range first {
		slots += oc.Slots
	}
	res := runResult{
		workload: w.name, attempted: chk.attempted, failed: chk.failed,
		values: map[string]sample{
			"certify_s":   median(certify),
			"cpu_s":       median(cpu),
			"peak_rss_mb": median(rss),
			"setup_s":     median(setup),
			"slots_total": one(float64(slots)),
		},
	}
	res.notes = append(res.notes, fmt.Sprintf("job_p50_s %.6g s, job_p90_s %.6g s (spec completion after the run starts; median over %d repetitions of %d specs)",
		stats.Median(p50), stats.Median(p90), len(p90), len(first)))
	if chk.unchecked > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d specs had no golden entry", chk.unchecked))
	}
	return res, nil
}

// traceInProcess is the traced run of an in-process workload: an untraced
// Workers=1 Runner child and the traced replay child over the same specs.
// The replay must reproduce the Runner's outcomes bit for bit.
func traceInProcess(ctx context.Context, o options, w workload) (runResult, error) {
	chk, err := newChecker(o, w)
	if err != nil {
		return runResult{}, err
	}
	r1, err := spawnChild(ctx, o, w, modeRunner1, "")
	if err != nil {
		return runResult{}, err
	}
	rp, err := spawnChild(ctx, o, w, modeReplay, spansPath(o.out, w.name))
	if err != nil {
		return runResult{}, err
	}
	for i, oc := range r1.report.Outcomes {
		chk.check(oc)
		chk.same("replay", rp.report.Outcomes[i], oc)
	}
	return traceResult(w, chk, rp.report, r1), nil
}

// traceResult assembles the per-layer metrics of a traced run from the
// replay report and the untraced Workers=1 child, with the service metrics
// at zero (serve-mix fills them in).
func traceResult(w workload, chk *checker, replay childReport, untraced childRun) runResult {
	vals := make(map[string]sample, len(perLayer))
	for _, d := range perLayer {
		vals[d.name] = one(replay.Layers[d.name])
	}
	vals["sinr.kernel_ns_per_pair"] = one(kernelNsPerPair())
	base := untraced.report.CertifyS
	vals["experiment.cpu_util"] = one(untraced.cpuS / (base * float64(runtime.GOMAXPROCS(0))))
	vals["trace.overhead_frac"] = one(replay.CertifyS/base - 1)
	res := runResult{workload: w.name, attempted: chk.attempted, failed: chk.failed, values: vals, table: replay.Table}
	if replay.UnattributedMax > maxUnattributed {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("the replay left %.1f%% of a spec's time unattributed (limit %.0f%%)",
			100*replay.UnattributedMax, 100*maxUnattributed))
	}
	res.notes = append(res.notes, fmt.Sprintf("untraced Workers=1 certify_s %.4gs, traced replay %.4gs",
		base, replay.CertifyS))
	return res
}

// kernelNsPerPair is the near-field kernel probe, run once per traced run;
// it doubles as the host-speed record.
func kernelNsPerPair() float64 {
	return sinr.MeasureKernelNsPerPair(sinr.Params{Alpha: 3, Beta: 2, Epsilon: 0.5}, 4096, 3)
}
