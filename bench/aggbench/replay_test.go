package main

import (
	"context"
	"testing"

	"aggrate/internal/experiment"
	"aggrate/internal/scheduler"
)

// TestReplayMatchesRunner pins the traced replay to experiment.Runner with
// one worker: every strategy under mean, uniform and global power on the
// oblivious and the arbitrary-power graph, then more deployments than the
// deployment cache holds, so a rebuilt deployment is replayed too. The
// replay must reproduce each spec's outcome bit for bit, and its conflict
// build counters and verify calls must equal the sums the Runner reports.
func TestReplayMatchesRunner(t *testing.T) {
	const n = 400
	var specs []experiment.Spec
	for _, graph := range []string{experiment.GraphOblivious, experiment.GraphArbitrary} {
		for _, pw := range []string{experiment.PowerMean, experiment.PowerUniform, experiment.PowerGlobal} {
			for _, algo := range scheduler.Names() {
				sp := experiment.NewSpec(preset("uniform"), n, 7)
				sp.Graph, sp.Power, sp.Algo = graph, pw, algo
				specs = append(specs, sp)
			}
		}
	}
	for seed := uint64(100); seed < 100+uint64(experiment.DefaultDeployCacheEntries)+2; seed++ {
		specs = append(specs, experiment.NewSpec(preset("cluster"), n, seed))
	}
	sunk := specs[0]
	sunk.Sink = n / 3 // mean-1m draws its sink from the seed
	specs = append(specs, specs[0], sunk)

	ctx := context.Background()
	results, err := (&experiment.Runner{Workers: 1}).Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer()
	var scanned, accepted int64
	verifyCalls, escalated := 0, 0
	for i, sp := range specs {
		want := fromResult(sp, results[i])
		if got := rp.run(ctx, sp, i+1); got != want {
			t.Errorf("spec %d:\n got  %+v\n want %+v", i, got, want)
		}
		scanned += results[i].Timings.BuildCandScanned
		accepted += results[i].Timings.BuildCandAccepted
		verifyCalls += results[i].GammaRetries + 1
		if results[i].GammaRetries > 0 {
			escalated++
		}
	}
	if escalated == 0 {
		t.Fatal("no spec escalated γ; the grid no longer covers the escalation loop")
	}
	// The verify engine's own counters are left out: which slots past the
	// first infeasible one a parallel verify examines, and so caches for
	// the next attempt, depends on scheduling.
	if rp.tot.candScanned != scanned || rp.tot.candAccepted != accepted || rp.tot.verifyCalls != verifyCalls {
		t.Errorf("replay counted cand_scanned %d, edges %d, verify calls %d; Runner %d, %d, %d",
			rp.tot.candScanned, rp.tot.candAccepted, rp.tot.verifyCalls, scanned, accepted, verifyCalls)
	}
	if rp.tot.deployHits == 0 || rp.tot.stageHits == 0 {
		t.Errorf("deployment hits %d, stage hits %d: the grid no longer exercises both caches",
			rp.tot.deployHits, rp.tot.stageHits)
	}
}

// TestSelfTimesSumToRoot checks the span arithmetic: children are
// subtracted once even when they overlap, and the self times of a trace add
// up to its root's duration.
func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Trace: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Trace: 1, StartNs: 50, EndNs: 90},
		{ID: 4, Parent: 3, Trace: 1, StartNs: 55, EndNs: 75},
		{ID: 5, Parent: 3, Trace: 1, StartNs: 60, EndNs: 85},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 30, 2: 30, 3: 10, 4: 20 * 30.0 / 45, 5: 25 * 30.0 / 45}
	sum := 0.0
	for id, w := range want {
		if d := self[id]*1e9 - w; d > 1e-6 || d < -1e-6 {
			t.Errorf("span %d: self %gns, want %gns", id, self[id]*1e9, w)
		}
		sum += self[id]
	}
	if d := sum*1e9 - 100; d > 1e-6 || d < -1e-6 {
		t.Errorf("self times sum to %gns, want the root's 100ns", sum*1e9)
	}
}

// TestUnattributedFrac checks that a spec of at least minJudgedSpecS is
// judged on its own and shorter specs only together.
func TestUnattributedFrac(t *testing.T) {
	long := int64(2 * minJudgedSpecS * 1e9)
	short := long / 20
	spec := func(id int, start, dur, gap int64) []span {
		return []span{
			{ID: id, Trace: id, Name: "spec", StartNs: start, EndNs: start + dur},
			{ID: id + 1, Parent: id, Trace: id, Name: "mst.emst", StartNs: start + gap, EndNs: start + dur},
		}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		want  float64
	}{
		// A short spec with a quarter of its time between spans does not
		// fail alone; the two specs leave 2.1% of their time unattributed.
		{"short spec", append(spec(1, 0, long, long/100), spec(3, 2*long, short, short/4)...), 0.0225 / 1.05},
		{"long spec", append(spec(1, 0, long, long/10), spec(3, 2*long, short, 0)...), 0.1},
	} {
		_, _, got := layerReport(tc.spans, counters{})
		if d := got - tc.want; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s: unattributed %g, want %g", tc.name, got, tc.want)
		}
	}
}
