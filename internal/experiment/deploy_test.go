package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/scheduler"
)

// TestDeployCacheSharedBuild: a same-deployment strategy grid (one
// scenario/n/seed, four algorithms) through a shared cache pays generation
// and EMST exactly once, and every result is bit-identical to a cold,
// cache-free run of the same spec.
func TestDeployCacheSharedBuild(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	algos := []string{scheduler.Greedy, scheduler.LengthClass, scheduler.DSatur, scheduler.JP}
	specs := Expand([]Scenario{sc}, []int{400}, 1, nil, algos, base)
	if len(specs) != len(algos) {
		t.Fatalf("grid expanded to %d specs, want %d", len(specs), len(algos))
	}

	dc := NewDeployCache(4)
	out, err := (&Runner{Workers: 4, Deploy: dc}).Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Runner.Run: %v", err)
	}
	hits, misses, evictions := dc.Stats()
	if misses != 1 || hits != int64(len(specs)-1) || evictions != 0 {
		t.Fatalf("cache stats hits=%d misses=%d evictions=%d, want %d/1/0",
			hits, misses, evictions, len(specs)-1)
	}
	builders := 0
	for i, res := range out {
		if res.Err != "" {
			t.Fatalf("spec %d failed: %s", i, res.Err)
		}
		if res.Timings.DeployReused {
			if res.Timings.GenerateSec != 0 || res.Timings.MSTSec != 0 {
				t.Fatalf("spec %d: reused deployment still reports gen=%g mst=%g",
					i, res.Timings.GenerateSec, res.Timings.MSTSec)
			}
		} else {
			builders++
		}
	}
	if builders != 1 {
		t.Fatalf("%d specs built the deployment, want exactly 1", builders)
	}
	for i, spec := range specs {
		cold := Run(context.Background(), spec)
		cold.Timings, out[i].Timings = Timings{}, Timings{}
		cj, _ := json.Marshal(cold)
		oj, _ := json.Marshal(out[i])
		if string(cj) != string(oj) {
			t.Fatalf("spec %d: shared-deployment result differs from cold run\nshared: %s\ncold:   %s", i, oj, cj)
		}
	}
}

// TestNoInstanceCacheParity: the --no-instance-cache escape hatch rebuilds
// per spec — no reuse reported, no cache traffic — and stays bit-identical
// to the cached batch.
func TestNoInstanceCacheParity(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	algos := []string{scheduler.Greedy, scheduler.DSatur}
	cached := Expand([]Scenario{sc}, []int{300}, 2, nil, algos, base)
	baseNC := base
	baseNC.NoInstanceCache = true
	uncached := Expand([]Scenario{sc}, []int{300}, 2, nil, algos, baseNC)

	outC, err := (&Runner{Workers: 2}).Run(context.Background(), cached)
	if err != nil {
		t.Fatal(err)
	}
	dc := NewDeployCache(0)
	outN, err := (&Runner{Workers: 2, Deploy: dc}).Run(context.Background(), uncached)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := dc.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("NoInstanceCache specs touched the cache: hits=%d misses=%d", hits, misses)
	}
	for i := range outN {
		if outN[i].Timings.DeployReused {
			t.Fatalf("spec %d reused a deployment despite NoInstanceCache", i)
		}
		// The knob is excluded from SpecKey, so the result records must agree
		// field for field once wall-clock timings are zeroed.
		outC[i].Timings, outN[i].Timings = Timings{}, Timings{}
		cj, _ := json.Marshal(outC[i])
		nj, _ := json.Marshal(outN[i])
		if string(cj) != string(nj) {
			t.Fatalf("spec %d: uncached result differs from cached\ncached:   %s\nuncached: %s", i, cj, nj)
		}
	}
}

// TestSchedCacheParity: specs differing only in power scheme share the
// pre-power stage (conflict build + ordering + coloring) through the
// deployment entry's stage map — the stage builds once per (SchedKey, γ)
// rung — and every result stays bit-identical to a cold --no-instance-cache
// run of the same spec.
func TestSchedCacheParity(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	powers := []string{PowerMean, PowerLinear, PowerUniform}
	specs := Expand([]Scenario{sc}, []int{400}, 1, powers, []string{scheduler.Greedy}, base)
	if len(specs) != len(powers) {
		t.Fatalf("grid expanded to %d specs, want %d", len(specs), len(powers))
	}

	dc := NewDeployCache(4)
	out, err := (&Runner{Workers: len(specs), Deploy: dc}).Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("Runner.Run: %v", err)
	}
	attempts := int64(0)
	reusedSpecs := 0
	for i, res := range out {
		if res.Err != "" {
			t.Fatalf("spec %d failed: %s", i, res.Err)
		}
		attempts += int64(res.GammaRetries) + 1
		if res.Timings.SchedReused {
			reusedSpecs++
			if res.GammaRetries == 0 &&
				res.Timings.BuildSec+res.Timings.BuildFilterSec+res.Timings.OrderSec+res.Timings.ColorSec != 0 {
				t.Fatalf("spec %d: fully reused stage still reports build=%g filter=%g order=%g color=%g",
					i, res.Timings.BuildSec, res.Timings.BuildFilterSec,
					res.Timings.OrderSec, res.Timings.ColorSec)
			}
		}
	}
	hits, misses := dc.SchedStats()
	if hits+misses != attempts {
		t.Fatalf("stage cache saw %d attempts (hits=%d misses=%d), pipeline ran %d",
			hits+misses, hits, misses, attempts)
	}
	// All specs share SchedKey, so each γ rung builds at most once; with
	// three power schemes starting at the same γ at least two attempts reuse.
	if hits < int64(len(specs)-1) || reusedSpecs < len(specs)-1 {
		t.Fatalf("stage sharing too low: hits=%d reused_specs=%d, want >= %d", hits, reusedSpecs, len(specs)-1)
	}
	for i, spec := range specs {
		spec.NoInstanceCache = true
		cold := Run(context.Background(), spec)
		if cold.Err != "" {
			t.Fatalf("cold spec %d failed: %s", i, cold.Err)
		}
		cold.Timings, out[i].Timings = Timings{}, Timings{}
		cj, _ := json.Marshal(cold)
		oj, _ := json.Marshal(out[i])
		if string(cj) != string(oj) {
			t.Fatalf("spec %d: stage-cached result differs from cold run\ncached: %s\ncold:   %s", i, oj, cj)
		}
	}
}

// TestSchedCacheGammaSweep: γ is excluded from SchedKey and sub-keyed per
// concrete rung, so a spec starting at γ=3 reuses the rung a γ=2 spec's
// escalation already built whenever the ladders land on the same value
// (2·1.5 = 3), while rungs never reached stay unshared.
func TestSchedCacheGammaSweep(t *testing.T) {
	sc := uniformScenario(t)
	dc := NewDeployCache(4)
	a := NewSpec(sc, 400, 1)
	b := NewSpec(sc, 400, 1)
	b.Gamma = 3
	outA, err := (&Runner{Workers: 1, Deploy: dc}).Run(context.Background(), []Spec{a})
	if err != nil || outA[0].Err != "" {
		t.Fatalf("gamma=2 run failed: %v / %s", err, outA[0].Err)
	}
	_, missesBefore := dc.SchedStats()
	outB, err := (&Runner{Workers: 1, Deploy: dc}).Run(context.Background(), []Spec{b})
	if err != nil || outB[0].Err != "" {
		t.Fatalf("gamma=3 run failed: %v / %s", err, outB[0].Err)
	}
	hits, misses := dc.SchedStats()
	reachedThree := outA[0].GammaRetries >= 1 // 2 → 3 via the 1.5 step
	if reachedThree {
		if hits == 0 || !outB[0].Timings.SchedReused {
			t.Fatalf("gamma=3 spec missed the rung the gamma=2 ladder built: hits=%d reused=%t",
				hits, outB[0].Timings.SchedReused)
		}
	} else if misses == missesBefore {
		t.Fatalf("gamma=3 spec built nothing: misses stuck at %d", misses)
	}
	bCold := b
	bCold.NoInstanceCache = true
	cold := Run(context.Background(), bCold)
	cold.Timings, outB[0].Timings = Timings{}, Timings{}
	cj, _ := json.Marshal(cold)
	oj, _ := json.Marshal(outB[0])
	if string(cj) != string(oj) {
		t.Fatalf("gamma-sweep cached result differs from cold run\ncached: %s\ncold:   %s", oj, cj)
	}
}

// TestDeployCacheEviction: an entry-capped cache evicts least-recently-used
// deployments; correctness is untouched, only reuse is shed.
func TestDeployCacheEviction(t *testing.T) {
	sc := uniformScenario(t)
	base := NewSpec(sc, 0, 0)
	// Three deployments (seeds), sequentially, through a single-entry cache.
	specs := Expand([]Scenario{sc}, []int{200}, 3, nil, []string{scheduler.Greedy}, base)
	dc := NewDeployCache(1)
	out, err := (&Runner{Workers: 1, Deploy: dc}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res.Err != "" {
			t.Fatalf("spec %d failed: %s", i, res.Err)
		}
		if res.Timings.DeployReused {
			t.Fatalf("spec %d reused across distinct deployments", i)
		}
	}
	_, misses, evictions := dc.Stats()
	if misses != 3 || evictions != 2 || dc.Len() != 1 {
		t.Fatalf("misses=%d evictions=%d len=%d, want 3/2/1", misses, evictions, dc.Len())
	}

	// A second pass over the last deployment hits what the cache retained.
	last := specs[len(specs)-1]
	if _, err := (&Runner{Workers: 1, Deploy: dc}).Run(context.Background(), []Spec{last}); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := dc.Stats(); hits != 1 {
		t.Fatalf("retained deployment not reused: hits=%d", hits)
	}
}

// gatedScenario wraps a scenario so that its first Generate call closes
// entered and then blocks until release is closed: a deployment build held
// in flight for as long as a test needs. Later calls pass straight through.
type gatedScenario struct {
	Scenario
	once             sync.Once
	entered, release chan struct{}
}

func newGatedScenario(sc Scenario) *gatedScenario {
	return &gatedScenario{Scenario: sc, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedScenario) Generate(n int, seed uint64) []geom.Point {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Scenario.Generate(n, seed)
}

// TestDeployCacheKeepsInFlight: a deployment still being built is never
// evicted, even past the entry budget; the budget is restored by the next
// insertion once the build has finished.
func TestDeployCacheKeepsInFlight(t *testing.T) {
	ctx := context.Background()
	sc := uniformScenario(t)
	g := newGatedScenario(sc)
	dc := NewDeployCache(1)

	type built struct {
		e   *deployEntry
		err error
	}
	done := make(chan built)
	go func() {
		e, err := deployFor(ctx, NewSpec(g, 200, 1), dc, &Timings{})
		done <- built{e, err}
	}()
	<-g.entered
	if _, err := deployFor(ctx, NewSpec(sc, 150, 1), dc, &Timings{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ev := dc.Stats(); ev != 0 || dc.Len() != 2 {
		t.Fatalf("in-flight build evicted: evictions=%d len=%d, want 0/2", ev, dc.Len())
	}
	close(g.release)
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}

	// The finished build stayed cached: a repeat request shares its entry.
	var tm Timings
	e, err := deployFor(ctx, NewSpec(sc, 200, 1), dc, &tm)
	if err != nil {
		t.Fatal(err)
	}
	if e != a.e || !tm.DeployReused {
		t.Fatalf("finished build not reused (same entry %v, reused %v)", e == a.e, tm.DeployReused)
	}
	if _, err := deployFor(ctx, NewSpec(sc, 100, 1), dc, &Timings{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ev := dc.Stats(); ev != 2 || dc.Len() != 1 {
		t.Fatalf("after a third deployment: evictions=%d len=%d, want 2/1", ev, dc.Len())
	}
}

// TestDeployCacheDropsFailedBuild: a failed deployment build is not cached;
// the next request for the same deployment builds it afresh.
func TestDeployCacheDropsFailedBuild(t *testing.T) {
	sc := uniformScenario(t)
	spec := NewSpec(sc, 200, 2)
	dc := NewDeployCache(2)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := deployFor(cancelled, spec, dc, &Timings{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err=%v, want context.Canceled", err)
	}
	if dc.Len() != 0 {
		t.Fatalf("failed build cached: len=%d", dc.Len())
	}

	var tm Timings
	e, err := deployFor(context.Background(), spec, dc, &tm)
	if err != nil {
		t.Fatal(err)
	}
	if tm.DeployReused || e.tree == nil {
		t.Fatalf("retry did not build: reused=%v tree=%v", tm.DeployReused, e.tree != nil)
	}
	if hits, misses, _ := dc.Stats(); hits != 0 || misses != 2 || dc.Len() != 1 {
		t.Fatalf("hits=%d misses=%d len=%d, want 0/2/1", hits, misses, dc.Len())
	}
}

// TestDeployCacheWaiterRebuildsCold: a request that waited on a build whose
// builder failed completes through its own cold build instead of inheriting
// the error, and that private build is not published to the cache.
func TestDeployCacheWaiterRebuildsCold(t *testing.T) {
	sc := uniformScenario(t)
	g := newGatedScenario(sc)
	spec := NewSpec(g, 200, 3)
	dc := NewDeployCache(2)

	builderCtx, cancel := context.WithCancel(context.Background())
	builderErr := make(chan error)
	go func() {
		_, err := deployFor(builderCtx, spec, dc, &Timings{})
		builderErr <- err
	}()
	<-g.entered

	type waited struct {
		e   *deployEntry
		tm  Timings
		err error
	}
	waiter := make(chan waited)
	go func() {
		var w waited
		w.e, w.err = deployFor(context.Background(), spec, dc, &w.tm)
		waiter <- w
	}()
	// The waiter has joined the in-flight build once it counts as a hit.
	for {
		if hits, _, _ := dc.Stats(); hits == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(g.release)
	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder: err=%v, want context.Canceled", err)
	}
	w := <-waiter
	if w.err != nil {
		t.Fatalf("waiter inherited the builder's failure: %v", w.err)
	}
	if w.tm.DeployReused || w.e.tree == nil {
		t.Fatalf("waiter did not build cold: reused=%v tree=%v", w.tm.DeployReused, w.e.tree != nil)
	}
	cold, err := mst.NewMSTTreeCtx(context.Background(), sc.Generate(200, 3), spec.Sink)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.e.tree.Links, cold.Links) {
		t.Fatal("waiter's cold build differs from a cold run")
	}
	if dc.Len() != 0 {
		t.Fatalf("waiter's cold build was cached: len=%d", dc.Len())
	}
}
