package experiment

import (
	"context"
	"math"
	"testing"

	"aggrate/internal/scheduler"
)

// Candidate counts of the greedy conflict builds at the probe instance
// (uniform, n=20000, seed 1), summed over its γ escalations: distance tests
// and accepted edges. Their ratio is the per-cell screen's efficiency.
const (
	probeCandScanned  = 1_817_784
	probeCandAccepted = 346_780
)

// TestPipelineWorkCounters holds the pipeline's hardware-independent work
// counters on one probe instance, so a lost reuse tier or a loosened screen
// fails here even when faster hardware hides it from the wall clock:
//   - the γ escalation is served by the lookahead filter scan, not a rebuild;
//   - a cold fast-engine verify does at most 5% of the naive pairwise work;
//   - a warm re-verify answers every slot from the margin cache;
//   - with the margins dropped, a re-verify reuses the built slot grids;
//   - the conflict build's distance tests per accepted edge stay within 5%
//     of the recorded counts.
//
// Both re-verifies must reproduce the cold margin bit for bit.
func TestPipelineWorkCounters(t *testing.T) {
	ctx := context.Background()
	inst, res, err := NewInstance(ctx, NewSpec(uniformScenario(t), 20_000, 1))
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if !res.Verified {
		t.Fatal("probe schedule not verified")
	}

	if res.GammaRetries < 1 {
		t.Fatalf("probe no longer escalates γ (%d retries); the lookahead gate has nothing to hold", res.GammaRetries)
	}
	if !res.Timings.BuildReused {
		t.Errorf("the γ retry rebuilt its conflict graph instead of filtering the lookahead build")
	}

	cold, cst, err := inst.Schedule.VerifySINRDelta(ctx, inst.Spec.SINR, inst.pf, nil)
	if err != nil {
		t.Fatalf("cold verify: %v", err)
	}
	if frac := cst.Engine.ExactPairsFrac(); !(frac > 0 && frac <= 0.05) {
		t.Errorf("exact_pairs_frac %.4g outside (0, 0.05]: the fast engine does too much exact pairwise work", frac)
	}

	if inst.vc == nil {
		t.Fatal("probe kept no verification cache")
	}
	warm, wst, err := inst.Schedule.VerifySINRDelta(ctx, inst.Spec.SINR, inst.pf, inst.vc)
	if err != nil {
		t.Fatalf("warm verify: %v", err)
	}
	if wst.ReusedSlots != wst.Slots {
		t.Errorf("warm re-verify reused %d of %d slots, want all", wst.ReusedSlots, wst.Slots)
	}
	if math.Float64bits(warm) != math.Float64bits(cold) {
		t.Errorf("warm margin %v != cold margin %v", warm, cold)
	}

	inst.vc.InvalidateMargins()
	gridWarm, gst, err := inst.Schedule.VerifySINRDelta(ctx, inst.Spec.SINR, inst.pf, inst.vc)
	if err != nil {
		t.Fatalf("grid-warm verify: %v", err)
	}
	if gst.ReusedGrids == 0 {
		t.Errorf("grid-warm re-verify rebuilt every slot grid instead of reusing the cached structures")
	}
	if math.Float64bits(gridWarm) != math.Float64bits(cold) {
		t.Errorf("grid-warm margin %v != cold margin %v", gridWarm, cold)
	}

	scanned, accepted := res.Timings.BuildCandScanned, res.Timings.BuildCandAccepted
	if accepted == 0 {
		t.Fatal("conflict build reported no accepted candidates")
	}
	got := float64(scanned) / float64(accepted)
	limit := 1.05 * float64(probeCandScanned) / float64(probeCandAccepted)
	if got > limit {
		t.Errorf("%.3f distance tests per accepted edge (%d/%d) exceed the limit %.3f", got, scanned, accepted, limit)
	}
	t.Logf("retries %d, exact_pairs_frac %.4g, reused slots %d/%d, reused grids %d, candidates %d/%d",
		res.GammaRetries, cst.Engine.ExactPairsFrac(), wst.ReusedSlots, wst.Slots, gst.ReusedGrids, scanned, accepted)
}

// TestSharedVerifyWorkCounters holds the gain of sharing slot margins
// across the specs of a deployment in hardware-independent work: on one
// n=2000 deployment, greedy under three oblivious powers at γ 2 and 3 must
// resolve at least 30% fewer exact link pairs than the same specs run with
// private entries (NoInstanceCache), and a γ=3 spec whose γ=2 twin
// escalated (so verified every rung of the γ=3 chain first) must answer
// every slot of its final attempt from the twin's margins.
func TestSharedVerifyWorkCounters(t *testing.T) {
	ctx := context.Background()
	sc := uniformScenario(t)
	var specs []Spec
	for _, gamma := range []float64{2, 3} {
		for _, pw := range []string{PowerUniform, PowerMean, PowerLinear} {
			sp := NewSpec(sc, 2000, 1)
			sp.Gamma, sp.Power = gamma, pw
			specs = append(specs, sp)
		}
	}
	dc := NewDeployCache(0)
	var shared, private int64
	twinEscalated := map[string]bool{}
	checked := 0
	for _, spec := range specs {
		inst, res, err := newInstance(ctx, spec, nil, dc)
		if err != nil {
			t.Fatalf("%s γ=%g: %v", spec.Power, spec.Gamma, err)
		}
		shared += res.Timings.VerifyExactLinks
		if spec.Gamma == 2 {
			twinEscalated[spec.Power] = res.GammaRetries >= 1
		} else if twinEscalated[spec.Power] {
			checked++
			if st := inst.VerifyStats; st.ReusedSlots != st.Slots {
				t.Errorf("%s γ=3: final attempt reused %d of %d slots from its escalated twin",
					spec.Power, st.ReusedSlots, st.Slots)
			}
		}

		spec.NoInstanceCache = true
		cold := Run(ctx, spec)
		if cold.Err != "" {
			t.Fatalf("private %s γ=%g: %s", spec.Power, spec.Gamma, cold.Err)
		}
		private += cold.Timings.VerifyExactLinks
	}
	if checked == 0 {
		t.Fatal("no γ=2 spec escalated: the twin gate has nothing to hold")
	}
	cut := 1 - float64(shared)/float64(private)
	if cut < 0.30 {
		t.Errorf("shared verification resolved %d exact link pairs against %d private (%.1f%% less), want >= 30%% less",
			shared, private, 100*cut)
	}
	t.Logf("exact link pairs shared %d, private %d (%.1f%% less); %d escalated twins", shared, private, 100*cut, checked)
}

// TestVerifyCountersRepeat: at one Runner worker the verify work counters
// are a function of the spec sequence alone. A sweep-style grid (every
// strategy under three oblivious powers at γ 2 and 3, over two deployments)
// runs twice in process, each time through a fresh DeployCache, and every
// spec's counters must repeat exactly — slot verifications still fan out
// over the par pool inside each spec, so this holds only if what a
// verification leaves in the shared margin cache does not depend on which
// slots past the first infeasible one a worker happened to claim.
func TestVerifyCountersRepeat(t *testing.T) {
	sc := uniformScenario(t)
	var specs []Spec
	for _, seed := range []uint64{1, 2} {
		for _, gamma := range []float64{2, 3} {
			for _, pw := range []string{PowerUniform, PowerMean, PowerLinear} {
				for _, algo := range scheduler.Names() {
					sp := NewSpec(sc, 1000, seed)
					sp.Gamma, sp.Power, sp.Algo = gamma, pw, algo
					specs = append(specs, sp)
				}
			}
		}
	}
	counters := func(tm Timings) [4]int64 {
		return [4]int64{tm.VerifyExactLinks, tm.VerifyReusedSlots, tm.VerifyGridReused, tm.VerifyRefinedCells}
	}
	var first [][4]int64
	for run := 0; run < 2; run++ {
		out, err := (&Runner{Workers: 1}).Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range out {
			if r.Err != "" {
				t.Fatalf("spec %d: %s", i, r.Err)
			}
			got := counters(r.Timings)
			if run == 0 {
				first = append(first, got)
			} else if got != first[i] {
				t.Errorf("spec %d (%s/%s/γ=%g seed %d): counters [exact reused grids refined] %v, then %v",
					i, specs[i].Algo, specs[i].Power, specs[i].Gamma, specs[i].Seed, first[i], got)
			}
		}
	}
}
