package experiment

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aggrate/internal/coloring"
	"aggrate/internal/conflict"
	"aggrate/internal/geom"
	"aggrate/internal/scenario"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
	"aggrate/internal/stats"
)

func uniformScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := scenario.Lookup("uniform")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestPipelineEndToEnd runs one full instance and checks every artifact
// against its own verifier: tree invariants, schedule structure, every slot
// independent in the conflict graph rebuilt at the γ that verified, and the
// SINR condition.
func TestPipelineEndToEnd(t *testing.T) {
	ctx := context.Background()
	spec := NewSpec(uniformScenario(t), 500, 1)
	inst, res, err := NewInstance(ctx, spec)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if err := inst.Tree.Validate(); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	if err := inst.Schedule.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	fam, err := inst.Spec.config(res.GammaUsed).ConflictFamily()
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.BuildLookaheadCtx(ctx, inst.Tree.Links, fam, res.GammaUsed)
	if err != nil {
		t.Fatal(err)
	}
	// Slots are independent sets iff the slot index is a proper coloring.
	slotOf := make([]int, len(inst.Tree.Links))
	for k, slot := range inst.Schedule.Slots {
		for _, i := range slot {
			slotOf[i] = k
		}
	}
	if err := coloring.Verify(g, slotOf); err != nil {
		t.Fatalf("slots not independent at γ=%g: %v", res.GammaUsed, err)
	}
	if !res.Verified || res.Margin < 1 {
		t.Fatalf("schedule not SINR-verified: verified=%v margin=%g", res.Verified, res.Margin)
	}
	if res.Links != 499 || res.Colors == 0 || res.ScheduleLength != res.Colors {
		t.Fatalf("metrics inconsistent: %+v", res)
	}
	if res.Rate <= 0 || res.Rate > 1 {
		t.Fatalf("rate %g outside (0, 1]", res.Rate)
	}
	// A coloring schedule's rate is exactly 1/period.
	if want := 1 / float64(res.ScheduleLength); res.Rate != want {
		t.Fatalf("rate %g != 1/period %g", res.Rate, want)
	}
}

// TestPowerSchemes: all four power modes must produce verified schedules
// on a small instance (escalating γ as needed).
func TestPowerSchemes(t *testing.T) {
	for _, pw := range []string{PowerUniform, PowerMean, PowerLinear, PowerGlobal} {
		spec := NewSpec(uniformScenario(t), 200, 2)
		spec.Power = pw
		if pw == PowerGlobal {
			spec.Graph = GraphArbitrary
		}
		res := Run(context.Background(), spec)
		if res.Err != "" {
			t.Fatalf("power=%s: %s", pw, res.Err)
		}
		if !res.Verified {
			t.Fatalf("power=%s: schedule not verified", pw)
		}
	}
}

// TestRefinePath: the Theorem-2 refinement rides along when requested and
// is verified inside the pipeline.
func TestRefinePath(t *testing.T) {
	spec := NewSpec(uniformScenario(t), 200, 3)
	spec.Refine = true
	inst, res, err := NewInstance(context.Background(), spec)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if res.RefineSets == 0 || len(inst.RefineSets) != res.RefineSets {
		t.Fatalf("refinement missing: res=%d inst=%d", res.RefineSets, len(inst.RefineSets))
	}
}

// TestBatchDeterministicAcrossWorkers: results must not depend on the
// worker count — each instance is seeded independently.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	specs := Expand([]Scenario{sc}, []int{100, 200}, 3, []string{PowerMean, PowerUniform},
		[]string{scheduler.Greedy, scheduler.LengthClass}, base)
	if len(specs) != 24 {
		t.Fatalf("Expand produced %d specs, want 24", len(specs))
	}
	r1, _ := (&Runner{Workers: 1}).Run(context.Background(), specs)
	r4, _ := (&Runner{Workers: 4}).Run(context.Background(), specs)
	// Wall-clock timings legitimately vary; everything else must not.
	for _, rs := range [][]*Result{r1, r4} {
		for _, r := range rs {
			r.Timings = Timings{}
		}
	}
	j1, _ := json.Marshal(r1)
	j4, _ := json.Marshal(r4)
	if string(j1) != string(j4) {
		t.Fatal("batch results differ between 1 and 4 workers")
	}
}

// TestAggregate groups and reduces a batch, checking group keys, seed
// counts, and error accounting.
func TestAggregate(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	specs := Expand([]Scenario{sc}, []int{100}, 3, []string{PowerMean}, nil, base)
	results, _ := (&Runner{}).Run(context.Background(), specs)
	results = append(results, &Result{Scenario: "uniform", N: 100, Power: PowerMean,
		Graph: GraphOblivious, Algo: scheduler.Greedy, Err: "boom"})
	sums := Aggregate(results)
	if len(sums) != 1 {
		t.Fatalf("Aggregate produced %d groups, want 1", len(sums))
	}
	s := sums[0]
	if s.Seeds != 4 || s.Errors != 1 {
		t.Fatalf("seeds=%d errors=%d, want 4 and 1", s.Seeds, s.Errors)
	}
	if s.MeanColors <= 0 || s.MinColors > s.MaxColors {
		t.Fatalf("color stats inconsistent: %+v", s)
	}
}

// TestResultJSONEncodable: the +Inf margin of singleton-slot schedules must
// be clamped so batches always marshal.
func TestResultJSONEncodable(t *testing.T) {
	// Two far-apart points: one link, one slot, margin +Inf under zero noise.
	sc := NamedScenario{Name: "pair", Gen: func(n int, seed uint64) []geom.Point {
		return []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	}}
	spec := NewSpec(sc, 2, 1)
	res := Run(context.Background(), spec)
	if res.Err != "" {
		t.Fatalf("pair instance failed: %s", res.Err)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("Result not JSON-encodable: %v", err)
	}
	if res.Margin != marginClamp {
		t.Fatalf("infinite margin not clamped: %g", res.Margin)
	}
}

// TestSpecErrors: malformed specs surface as errors, not panics.
func TestSpecErrors(t *testing.T) {
	if res := Run(context.Background(), Spec{}); res.Err == "" {
		t.Fatal("empty spec did not error")
	}
	spec := NewSpec(uniformScenario(t), 100, 1)
	spec.Graph = "bogus"
	if res := Run(context.Background(), spec); res.Err == "" {
		t.Fatal("bogus graph kind did not error")
	}
	spec = NewSpec(uniformScenario(t), 100, 1)
	spec.Power = "bogus"
	if res := Run(context.Background(), spec); res.Err == "" {
		t.Fatal("bogus power scheme did not error")
	}
}

// TestValidateSchedule cross-checks the schedule artifact against the
// standalone schedule verifier on a second instance for good measure.
func TestValidateSchedule(t *testing.T) {
	spec := NewSpec(uniformScenario(t), 300, 9)
	inst, _, err := NewInstance(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	occ := inst.Schedule.Occurrences()
	for i, o := range occ {
		if o != 1 {
			t.Fatalf("coloring schedule has link %d in %d slots, want exactly 1", i, o)
		}
	}
	var _ *schedule.Schedule = inst.Schedule
}

// TestAllAlgosVerify: every registered strategy must reach a SINR-verified
// schedule on the same instance, across the three conflict graphs.
func TestAllAlgosVerify(t *testing.T) {
	sc := uniformScenario(t)
	for _, gk := range []string{GraphGamma, GraphOblivious, GraphArbitrary} {
		for _, algo := range scheduler.Names() {
			spec := NewSpec(sc, 250, 11)
			spec.Graph = gk
			spec.Algo = algo
			res := Run(context.Background(), spec)
			if res.Err != "" {
				t.Fatalf("graph=%s algo=%s: %s", gk, algo, res.Err)
			}
			if !res.Verified {
				t.Fatalf("graph=%s algo=%s: schedule not verified", gk, algo)
			}
			if res.Algo != algo {
				t.Fatalf("result algo %q, want %q", res.Algo, algo)
			}
			if algo == scheduler.LengthClass && res.Classes < 1 {
				t.Fatalf("lengthclass reported %d length classes", res.Classes)
			}
			if algo == scheduler.LengthClass && gk == GraphArbitrary && res.RefineSets < 1 {
				t.Fatalf("lengthclass on arb reported %d refine sets", res.RefineSets)
			}
		}
	}
}

// TestUnknownAlgoErrors: a bogus algorithm name must fail the instance, not
// panic the batch.
func TestUnknownAlgoErrors(t *testing.T) {
	spec := NewSpec(uniformScenario(t), 100, 1)
	spec.Algo = "bogus"
	if res := Run(context.Background(), spec); res.Err == "" {
		t.Fatal("bogus algo did not error")
	}
}

// TestAggregateSplitsByAlgo: two algorithms over the same cell must land in
// separate summary groups.
func TestAggregateSplitsByAlgo(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	specs := Expand([]Scenario{sc}, []int{120}, 2, []string{PowerMean},
		[]string{scheduler.Greedy, scheduler.Naive}, base)
	results, _ := (&Runner{}).Run(context.Background(), specs)
	sums := Aggregate(results)
	if len(sums) != 2 {
		t.Fatalf("Aggregate produced %d groups, want 2 (one per algo)", len(sums))
	}
	if sums[0].Algo == sums[1].Algo {
		t.Fatalf("summary groups share algo %q", sums[0].Algo)
	}
	for _, s := range sums {
		if s.Seeds != 2 || s.Errors != 0 {
			t.Fatalf("summary %+v inconsistent", s)
		}
	}
}

// TestNonFiniteParamsRejected: a NaN or infinite γ, δ or γ step is refused
// before any instance is generated, instead of running the pipeline (NaN
// slips past every range default of normalized).
func TestNonFiniteParamsRejected(t *testing.T) {
	gen := 0
	sc := NamedScenario{Name: "counting", Gen: func(n int, seed uint64) []geom.Point {
		gen++
		return uniformScenario(t).Generate(n, seed)
	}}
	for _, tc := range []struct {
		name string
		set  func(*Spec)
	}{
		{"gamma NaN", func(s *Spec) { s.Gamma = math.NaN() }},
		{"gamma -Inf", func(s *Spec) { s.Gamma = math.Inf(-1) }},
		{"delta NaN", func(s *Spec) { s.Delta = math.NaN() }},
		{"gamma step Inf", func(s *Spec) { s.GammaStep = math.Inf(1) }},
	} {
		spec := NewSpec(sc, 60, 1)
		tc.set(&spec)
		if _, _, err := NewInstance(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "want a finite value") {
			t.Fatalf("%s: err = %v, want a non-finite rejection", tc.name, err)
		}
	}
	if gen != 0 {
		t.Fatalf("generator ran %d times for rejected specs", gen)
	}
}

// TestValidateBeforeGeneration: every spec Validate rejects fails Run with
// Validate's own message and never reaches the scenario generator, an
// unknown power scheme included.
func TestValidateBeforeGeneration(t *testing.T) {
	gen := 0
	sc := NamedScenario{Name: "counting", Gen: func(n int, seed uint64) []geom.Point {
		gen++
		return uniformScenario(t).Generate(n, seed)
	}}
	for _, tc := range []struct {
		name, wantErr string
		set           func(*Spec)
	}{
		{"bad power", "unknown power scheme", func(s *Spec) { s.Power = "warp" }},
		{"bad algo", "unknown algorithm", func(s *Spec) { s.Algo = "warp" }},
		{"bad graph", "unknown graph kind", func(s *Spec) { s.Graph = "warp" }},
		{"naive engine", "unknown verify engine", func(s *Spec) { s.VerifyEngine = engineNaive }},
		{"no scenario", "no scenario", func(s *Spec) { s.Scenario = nil }},
		{"n=1", "need n >= 2", func(s *Spec) { s.N = 1 }},
		{"alpha=2", "alpha", func(s *Spec) { s.SINR.Alpha = 2 }},
		{"beta=0", "beta", func(s *Spec) { s.SINR.Beta = 0 }},
		{"negative noise", "noise", func(s *Spec) { s.SINR.Noise = -1 }},
		{"gamma<0", "gamma is -3, want a positive value", func(s *Spec) { s.Gamma = -3 }},
		{"delta<0", "delta is -0.5, want a value in (0, 1)", func(s *Spec) { s.Delta = -0.5 }},
		{"delta=1", "delta is 1, want a value in (0, 1)", func(s *Spec) { s.Delta = 1 }},
		{"delta=1.5", "delta is 1.5, want a value in (0, 1)", func(s *Spec) { s.Delta = 1.5 }},
		{"gamma step=1", "gamma step is 1, want a value above 1", func(s *Spec) { s.GammaStep = 1 }},
		{"gamma step<0", "gamma step is -2, want a value above 1", func(s *Spec) { s.GammaStep = -2 }},
		{"retries<0", "max gamma retries is -1", func(s *Spec) { s.MaxGammaRetries = -1 }},
		{"lookahead<0", "gamma lookahead is -1", func(s *Spec) { s.GammaLookahead = -1 }},
	} {
		spec := NewSpec(sc, 60, 1)
		tc.set(&spec)
		verr := spec.Validate()
		if verr == nil || !strings.Contains(verr.Error(), tc.wantErr) {
			t.Fatalf("%s: Validate = %v, want %q", tc.name, verr, tc.wantErr)
		}
		if res := Run(context.Background(), spec); res.Err != verr.Error() {
			t.Fatalf("%s: Run error %q, want Validate's %q", tc.name, res.Err, verr)
		}
	}
	if gen != 0 {
		t.Fatalf("generator ran %d times for rejected specs", gen)
	}
	if err := NewSpec(sc, 60, 1).Validate(); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
	if err := (Spec{Scenario: sc, N: 2}).Validate(); err != nil {
		t.Fatalf("sparse spec rejected (zero values take their defaults): %v", err)
	}
}

// TestSpecKeyPinned: the keys of valid specs, zero-valued and explicit,
// stay the ones the result cache and the journal already hold. Rejecting
// out-of-range values instead of defaulting them must not move a key that
// a legal spec hashes to.
func TestSpecKeyPinned(t *testing.T) {
	sc := uniformScenario(t)
	for _, tc := range []struct {
		spec Spec
		key  string
	}{
		{NewSpec(sc, 500, 3), "650035e420ad4c6a08e0bff82fdaa50f"},
		{Spec{Scenario: sc, N: 500, Seed: 3, Verify: true}, "650035e420ad4c6a08e0bff82fdaa50f"},
		{Spec{Scenario: sc, N: 2000, Seed: 7, Gamma: 3, Delta: 0.25, GammaStep: 2, MaxGammaRetries: 3,
			Power: PowerGlobal, Graph: GraphArbitrary, Verify: true}, "1a2f95ae3c2b4629752bf05ff0a5dfc4"},
		{Spec{Scenario: sc, N: 60, Seed: 1, Gamma: 0.5, Delta: 0.999, GammaStep: 1.01, MaxGammaRetries: 1,
			GammaLookahead: 4, Algo: scheduler.DSatur}, "a41dd13b024827e299a68f3900b4eea0"},
	} {
		if err := tc.spec.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if got := SpecKey(tc.spec); got != tc.key {
			t.Fatalf("%+v: key %s, want %s", tc.spec, got, tc.key)
		}
	}
}

// TestOverflowDiversityStaysFinite: when the length ratio overflows float64,
// the log-space diversity pipeline must still deliver a finite log* instead
// of the LogStarUndefined sentinel, and Aggregate must not let any sentinel
// corrupt MeanLogStar.
func TestOverflowDiversityStaysFinite(t *testing.T) {
	sc := NamedScenario{Name: "overflow", Gen: func(n int, seed uint64) []geom.Point {
		return []geom.Point{{X: 0, Y: 0}, {X: 1e-308, Y: 0}, {X: 1e30, Y: 0}}
	}}
	spec := NewSpec(sc, 3, 1)
	spec.Verify = false // powers under/overflow at these scales; metrics are the point
	_, res, err := NewInstance(context.Background(), spec)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if math.IsInf(res.Log2Diversity, 0) || res.Log2Diversity < 1000 {
		t.Fatalf("Log2Diversity = %g, want finite and > 1000", res.Log2Diversity)
	}
	if res.LogStar != 5 {
		t.Fatalf("LogStar = %d, want 5 (log* of 2^~1123)", res.LogStar)
	}
	// Diversity and LogLog must be clamped/log-space finite so the record —
	// and hence the whole batch output — stays JSON-encodable.
	if math.IsInf(res.Diversity, 0) || math.IsInf(res.LogLog, 0) {
		t.Fatalf("Diversity=%g LogLog=%g must be finite", res.Diversity, res.LogLog)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("overflow-diversity Result not JSON-encodable: %v", err)
	}
	// A sentinel row must be excluded from both log*-derived reductions.
	rows := []*Result{
		res,
		{Scenario: "overflow", N: 3, Seed: 2, Power: res.Power, Graph: res.Graph,
			Algo: res.Algo, Colors: 1, LogStar: stats.LogStarUndefined,
			ColorsPerLogStar: 15},
	}
	sums := Aggregate(rows)
	if len(sums) != 1 {
		t.Fatalf("Aggregate produced %d groups, want 1", len(sums))
	}
	if sums[0].MeanLogStar != 5 {
		t.Fatalf("MeanLogStar = %g, want 5 (sentinel row excluded)", sums[0].MeanLogStar)
	}
	if sums[0].MeanColorsPerLogStar != res.ColorsPerLogStar {
		t.Fatalf("MeanColorsPerLogStar = %g, want %g (sentinel row excluded)",
			sums[0].MeanColorsPerLogStar, res.ColorsPerLogStar)
	}
	// Multiple clamped-diversity seeds in one cell: the summary reduces
	// diversity by median (no summation), so it must stay JSON-encodable.
	res2 := *res
	res2.Seed = 2
	if sums = Aggregate([]*Result{res, &res2}); len(sums) != 1 {
		t.Fatalf("Aggregate produced %d groups, want 1", len(sums))
	}
	if _, err := json.Marshal(sums); err != nil {
		t.Fatalf("two-seed overflow summary not JSON-encodable: %v", err)
	}
}

// TestSinkValidation: an out-of-range Spec.Sink is a validation error like
// the other spec checks — never silently clamped to 0.
func TestSinkValidation(t *testing.T) {
	sc := uniformScenario(t)
	for _, sink := range []int{-1, 100, 101} {
		spec := NewSpec(sc, 100, 1)
		spec.Sink = sink
		_, _, err := NewInstance(context.Background(), spec)
		if err == nil || !strings.Contains(err.Error(), "sink") {
			t.Fatalf("sink=%d: err=%v, want a sink range error", sink, err)
		}
	}
	// Every in-range sink (not just 0) is accepted and rooted correctly.
	spec := NewSpec(sc, 100, 1)
	spec.Sink = 99
	inst, res, err := NewInstance(context.Background(), spec)
	if err != nil {
		t.Fatalf("sink=99: %v", err)
	}
	if res.Links != 99 || inst.Tree.Sink != 99 {
		t.Fatalf("sink=99: links=%d sink=%d", res.Links, inst.Tree.Sink)
	}
}

// TestRunnerStreamsInCompletionOrder: the sink sees every result exactly
// once, carrying the same pointers the ordered slice returns.
func TestRunnerStreamsInCompletionOrder(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	specs := Expand([]Scenario{sc}, []int{60, 90}, 3, nil, nil, base)
	seen := make(map[int]*Result)
	r := Runner{Workers: 4, Sink: func(i int, res *Result) {
		if _, dup := seen[i]; dup {
			t.Errorf("sink saw index %d twice", i)
		}
		seen[i] = res
	}}
	out, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Runner.Run: %v", err)
	}
	if len(seen) != len(specs) {
		t.Fatalf("sink saw %d results, want %d", len(seen), len(specs))
	}
	for i, res := range out {
		if res == nil || seen[i] != res {
			t.Fatalf("index %d: ordered result and sink emission diverge", i)
		}
		if res.Err != "" {
			t.Fatalf("index %d failed: %s", i, res.Err)
		}
	}
}

// TestRunnerWorkspaceReuseDeterministic: pooled per-worker workspaces must
// not leak state between instances — a Runner batch matches fresh
// single-instance runs field for field.
func TestRunnerWorkspaceReuseDeterministic(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	// Mixed algos and sizes so one worker's workspace crosses strategies.
	specs := Expand([]Scenario{sc}, []int{80, 140}, 2, []string{PowerMean},
		[]string{scheduler.Greedy, scheduler.LengthClass, scheduler.DSatur}, base)
	pooled, err := (&Runner{Workers: 1}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		fresh := Run(context.Background(), spec)
		fresh.Timings, pooled[i].Timings = Timings{}, Timings{}
		fj, _ := json.Marshal(fresh)
		pj, _ := json.Marshal(pooled[i])
		if string(fj) != string(pj) {
			t.Fatalf("spec %d: pooled result differs from fresh run\npooled: %s\nfresh:  %s", i, pj, fj)
		}
	}
}

// TestBatchCancellation: a mid-batch cancel returns promptly with a
// partial, well-formed result set and no leaked goroutines.
func TestBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	// Enough work that the batch cannot finish before the cancel fires.
	specs := Expand([]Scenario{sc}, []int{4000}, 32, nil, nil, base)
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int64
	r := Runner{Workers: 2, Sink: func(i int, res *Result) {
		if completed.Add(1) == 1 {
			cancel()
		}
	}}
	start := time.Now()
	out, err := r.Run(ctx, specs)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	// Prompt return: the in-flight instances stop at the next chunk/slot
	// boundary. One 4000-node instance takes ~100ms here; 5s of slack keeps
	// slow CI honest without flakes.
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled batch took %v to return", elapsed)
	}
	got := 0
	for _, res := range out {
		if res == nil {
			continue // never ran — the partial set's well-formed gap marker
		}
		got++
		if res.Err != "" {
			t.Fatalf("completed result carries error %q", res.Err)
		}
	}
	if got == 0 || got >= len(specs) {
		t.Fatalf("partial set has %d/%d results, want strictly between", got, len(specs))
	}
	// No leaked goroutines: workers exit on cancel; par's pool goroutines
	// are per-call and unwind with their callers.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSpecKeyCanonical: keys are stable under normalization (zero-valued
// defaultable fields hash like their defaults) and distinct across every
// cache-relevant axis.
func TestSpecKeyCanonical(t *testing.T) {
	sc := uniformScenario(t)
	full := NewSpec(sc, 500, 3)
	// Verify is a plain bool (false is meaningful, not a defaultable zero),
	// so the sparse spec states it; everything else normalizes.
	sparse := Spec{Scenario: sc, N: 500, Seed: 3, Verify: true}
	if SpecKey(full) != SpecKey(sparse) {
		t.Fatal("normalized and sparse specs hash differently")
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.N = 501 },
		func(s *Spec) { s.Seed = 4 },
		func(s *Spec) { s.Sink = 1 },
		func(s *Spec) { s.Power = PowerGlobal },
		func(s *Spec) { s.Graph = GraphArbitrary },
		func(s *Spec) { s.Algo = scheduler.DSatur },
		func(s *Spec) { s.Gamma = 3 },
		func(s *Spec) { s.SINR.Alpha = 4 },
		func(s *Spec) { s.Verify = false },
		func(s *Spec) { s.VerifyEngine = "naive" },
	}
	base := SpecKey(full)
	for i, mut := range mutations {
		s := full
		mut(&s)
		if SpecKey(s) == base {
			t.Fatalf("mutation %d did not change the spec key", i)
		}
	}
	// Pure performance knobs produce identical results (the parity suites
	// pin this), so they must NOT participate in the cache key.
	perfKnobs := []func(*Spec){
		func(s *Spec) { s.NoIncrementalVerify = true },
		func(s *Spec) { s.NoLookahead = true },
		func(s *Spec) { s.GammaLookahead = 4 },
		func(s *Spec) { s.NoInstanceCache = true },
	}
	for i, mut := range perfKnobs {
		s := full
		mut(&s)
		if SpecKey(s) != base {
			t.Fatalf("performance knob %d changed the spec key", i)
		}
	}
}

// TestStageSeconds: the Timings export hook covers every pipeline stage
// exactly once, in pipeline order, with build folding in the filter time.
func TestStageSeconds(t *testing.T) {
	tm := Timings{
		GenerateSec: 1, MSTSec: 2, BuildSec: 3, BuildFilterSec: 0.5,
		OrderSec: 4, ColorSec: 5, VerifySec: 6,
	}
	got := tm.StageSeconds()
	want := []StageSecond{
		{"gen", 1}, {"mst", 2}, {"build", 3.5}, {"order", 4}, {"color", 5}, {"verify", 6},
	}
	if len(got) != len(want) {
		t.Fatalf("StageSeconds returned %d stages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
