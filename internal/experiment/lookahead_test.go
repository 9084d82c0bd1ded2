package experiment

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// escalatingSpec is the deterministic near-threshold fixture: G_γ at
// γ₀ = 0.5 on uniform n=400 escalates 6 times before mean-power
// verification succeeds (pinned by the retries assertion below), so the
// retry path — the whole point of the γ-lookahead — is exercised for real.
// GammaLookahead is opened to the full retry budget so every attempt after
// the first is served by the filter scan.
func escalatingSpec(t *testing.T) Spec {
	spec := NewSpec(uniformScenario(t), 400, 7)
	spec.Graph = GraphGamma
	spec.Gamma = 0.5
	spec.GammaLookahead = spec.MaxGammaRetries
	return spec
}

// TestEscalationLookaheadReuse: on a γ-escalating instance, attempt 2+ must
// be served by the lookahead filter scan — build_reused set, filter time
// accounted separately — and the final attempt's own Diag must report reuse
// (it ran at an escalated γ inside the window).
func TestEscalationLookaheadReuse(t *testing.T) {
	inst, res, err := NewInstance(context.Background(), escalatingSpec(t))
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if res.GammaRetries < 2 {
		t.Fatalf("fixture regressed: %d escalations, need >= 2", res.GammaRetries)
	}
	if !res.Verified {
		t.Fatal("fixture schedule not verified")
	}
	if !res.Timings.BuildReused {
		t.Fatal("escalating run never reused the lookahead build")
	}
	if res.Timings.BuildFilterSec <= 0 {
		t.Fatalf("build_filter_sec = %g, want > 0 on a reusing run", res.Timings.BuildFilterSec)
	}
	if res.Timings.BuildSec <= 0 {
		t.Fatal("build_sec empty: the first attempt's full build must still be accounted")
	}
	// The final attempt ran at an escalated γ within the lookahead window,
	// so its conflict graph came from the filter scan.
	if !inst.Diag.BuildReused {
		t.Fatal("final attempt's Diag does not report lookahead reuse")
	}
	if inst.GammaRetries != res.GammaRetries || inst.GammaUsed != res.GammaUsed {
		t.Fatalf("instance/result escalation records disagree: %+v vs %+v",
			inst.GammaRetries, res.GammaRetries)
	}
}

// TestLookaheadMatchesDirectRun is the end-to-end parity half: the lookahead
// run and a NoLookahead run must land on the identical schedule — same
// escalation count, same final γ, same palette, same conflict-graph size,
// same slots, same worst margin — because filtered graphs are bit-identical
// to direct builds.
func TestLookaheadMatchesDirectRun(t *testing.T) {
	withLA, resLA, err := NewInstance(context.Background(), escalatingSpec(t))
	if err != nil {
		t.Fatalf("lookahead run: %v", err)
	}
	specDirect := escalatingSpec(t)
	specDirect.NoLookahead = true
	withoutLA, resDirect, err := NewInstance(context.Background(), specDirect)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if resDirect.Timings.BuildReused || resDirect.Timings.BuildFilterSec != 0 {
		t.Fatalf("NoLookahead run reports lookahead activity: %+v", resDirect.Timings)
	}
	if resLA.GammaUsed != resDirect.GammaUsed || resLA.GammaRetries != resDirect.GammaRetries {
		t.Fatalf("escalation differs: lookahead (γ=%g, %d retries) vs direct (γ=%g, %d retries)",
			resLA.GammaUsed, resLA.GammaRetries, resDirect.GammaUsed, resDirect.GammaRetries)
	}
	if resLA.Colors != resDirect.Colors || resLA.ScheduleLength != resDirect.ScheduleLength {
		t.Fatalf("palette differs: lookahead %d/%d vs direct %d/%d",
			resLA.Colors, resLA.ScheduleLength, resDirect.Colors, resDirect.ScheduleLength)
	}
	if resLA.Edges != resDirect.Edges || resLA.MaxDegree != resDirect.MaxDegree {
		t.Fatalf("conflict graph differs: lookahead %d edges vs direct %d edges",
			resLA.Edges, resDirect.Edges)
	}
	if resLA.Margin != resDirect.Margin {
		t.Fatalf("margin differs: lookahead %g vs direct %g", resLA.Margin, resDirect.Margin)
	}
	// The slots are the coloring (slot k = color k).
	if !slices.EqualFunc(withLA.Schedule.Slots, withoutLA.Schedule.Slots, slices.Equal[[]int]) {
		t.Fatal("schedules differ between the lookahead and direct runs")
	}
}

// countdownCtx cancels after its Err method has been consulted a fixed
// number of times: a deterministic way to land a cancellation at every
// internal check site in turn, without goroutines or timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(k)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestLookaheadCancelMidPipeline sweeps a countdown cancellation across the
// escalating fixture, so the context fires at every successive check site —
// including mid-filter-scan inside the lookahead path — and asserts each
// aborted run surfaces as a well-formed partial result: the context error,
// a non-nil Result with its wall-clock stamped, and never a phantom
// verified schedule.
func TestLookaheadCancelMidPipeline(t *testing.T) {
	spec := escalatingSpec(t)
	for k := int64(1); ; k *= 2 {
		ctx := newCountdownCtx(k)
		inst, res, err := NewInstance(ctx, spec)
		if err == nil {
			if res == nil || !res.Verified {
				t.Fatalf("k=%d: completed run is not verified", k)
			}
			if inst == nil || !inst.Diag.BuildReused {
				t.Fatalf("k=%d: completed run lost the lookahead path", k)
			}
			return // countdown outlasted the pipeline: sweep complete
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: unexpected error %v", k, err)
		}
		if res == nil {
			t.Fatalf("k=%d: cancelled run returned no partial result", k)
		}
		if res.Verified {
			t.Fatalf("k=%d: cancelled run claims verification", k)
		}
		if res.Timings.TotalSec <= 0 {
			t.Fatalf("k=%d: partial result missing wall-clock stamp", k)
		}
		if k > 1<<40 {
			t.Fatal("countdown sweep did not terminate")
		}
	}
}

// TestLookaheadTimingSplit: a non-escalating run (γ generous enough to
// verify first try) must not report reuse, and its filter time stays zero —
// the lookahead only pays off (and only reports) when retries happen.
func TestLookaheadTimingSplit(t *testing.T) {
	spec := NewSpec(uniformScenario(t), 400, 7)
	spec.Gamma = 8 // far above threshold: first attempt verifies
	start := time.Now()
	_, res, err := NewInstance(context.Background(), spec)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if res.GammaRetries != 0 {
		t.Fatalf("generous-γ fixture escalated %d times", res.GammaRetries)
	}
	if res.Timings.BuildReused {
		t.Fatal("single-attempt run reports build reuse")
	}
	if res.Timings.TotalSec > time.Since(start).Seconds() {
		t.Fatal("timings exceed wall clock")
	}
}

// workCounters returns t with every wall-clock field zeroed, leaving the
// reuse flags and the build and verify work counters.
func workCounters(t Timings) Timings {
	t.GenerateSec, t.MSTSec, t.BuildSec, t.BuildFilterSec = 0, 0, 0, 0
	t.OrderSec, t.ColorSec, t.RefineSec, t.VerifySec = 0, 0, 0, 0
	t.PowerSolveSec, t.TotalSec = 0, 0
	return t
}

// TestUncachedRunsShareThePath: a run without a shared cache goes through a
// private, empty one. On the escalating fixture, Run, a one-worker Runner
// over a fresh DeployCache, and that Runner's NoInstanceCache and
// NoIncrementalVerify variants agree on every non-timing Result field; Run,
// the fresh-cache Runner and the NoInstanceCache variant also agree on
// every Timings work counter, since each finds its cache empty.
func TestUncachedRunsShareThePath(t *testing.T) {
	ctx := context.Background()
	spec := escalatingSpec(t)
	noInst, noInc := spec, spec
	noInst.NoInstanceCache = true
	noInc.NoIncrementalVerify = true

	run := Run(ctx, spec)
	if run.Err != "" || !run.Verified || run.GammaRetries < 2 {
		t.Fatalf("fixture regressed: err=%q verified=%v retries=%d", run.Err, run.Verified, run.GammaRetries)
	}
	out, err := (&Runner{Workers: 1, Deploy: NewDeployCache(0)}).Run(ctx, []Spec{spec, noInst, noInc})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"runner", "no-instance-cache"} {
		if got, want := workCounters(out[i].Timings), workCounters(run.Timings); got != want {
			t.Fatalf("%s: work counters differ from Run:\n got  %+v\n want %+v", name, got, want)
		}
	}
	want := *run
	want.Timings = Timings{}
	for i, name := range []string{"runner", "no-instance-cache", "no-incremental-verify"} {
		got := *out[i]
		got.Timings = Timings{}
		if got != want {
			t.Fatalf("%s: result differs from Run:\n got  %+v\n want %+v", name, got, want)
		}
	}
}
