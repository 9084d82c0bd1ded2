package experiment

import (
	"context"
	"math"
	"testing"
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
