package scheduler

import (
	"context"
	"math"
	"strings"
	"testing"

	"aggrate/internal/conflict"
	"aggrate/internal/geom"
	"aggrate/internal/mst"
	"aggrate/internal/scenario"
	"aggrate/internal/sinr"
)

// All returns every registered strategy in canonical order.
func All() []Strategy {
	out := make([]Strategy, 0, len(Names()))
	for _, n := range Names() {
		s, _ := Lookup(n)
		out = append(out, s)
	}
	return out
}

func defaultConfig() Config {
	return Config{Graph: GraphOblivious, Gamma: 2, Delta: 0.5, SINR: sinr.DefaultParams()}
}

// instanceLinks materializes the MST link set of a scenario preset.
func instanceLinks(t *testing.T, preset string, n int, seed uint64) []geom.Link {
	t.Helper()
	sc, err := scenario.Lookup(preset)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mst.NewMSTTree(sc.Generate(n, seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tree.Links
}

func TestLookupAndNames(t *testing.T) {
	for _, name := range Names() {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("Lookup(bogus) did not error")
	}
	if got := len(All()); got != len(Names()) {
		t.Fatalf("All() has %d strategies, Names() %d", got, len(Names()))
	}
}

func TestUnknownGraphKindRejectedByEveryStrategy(t *testing.T) {
	links := instanceLinks(t, "uniform", 50, 1)
	cfg := defaultConfig()
	cfg.Graph = "bogus"
	for _, s := range All() {
		if _, _, err := s.Schedule(context.Background(), links, cfg); err == nil {
			t.Fatalf("%s: bogus graph kind did not error", s.Name())
		}
	}
	// The error tells the user what to type instead.
	if _, err := cfg.ConflictFamily(); err == nil || !strings.Contains(err.Error(), `"bogus" (have [gamma obl arb])`) {
		t.Fatalf("unknown graph kind error %v does not list the valid kinds", err)
	}
}

func TestEmptyLinkSet(t *testing.T) {
	for _, s := range All() {
		sched, _, err := s.Schedule(context.Background(), nil, defaultConfig())
		if err != nil {
			t.Fatalf("%s: empty link set errored: %v", s.Name(), err)
		}
		if sched.Period() != 0 {
			t.Fatalf("%s: empty link set gave period %d", s.Name(), sched.Period())
		}
	}
}

func TestLengthClassesDyadic(t *testing.T) {
	// Lengths 1, 1.5, 2, 3.9, 4, 16 → classes [1,2), [2,4), [4,8), [16,32).
	mk := func(l float64) geom.Link {
		return geom.NewLink(0, 1, geom.Point{}, geom.Point{X: l})
	}
	links := []geom.Link{mk(1), mk(1.5), mk(2), mk(3.9), mk(4), mk(16)}
	groups, err := LengthClasses(links)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2, 3}, {4}, {5}}
	if len(groups) != len(want) {
		t.Fatalf("got %d classes %v, want %v", len(groups), groups, want)
	}
	for c := range want {
		if len(groups[c]) != len(want[c]) {
			t.Fatalf("class %d = %v, want %v", c, groups[c], want[c])
		}
		for k := range want[c] {
			if groups[c][k] != want[c][k] {
				t.Fatalf("class %d = %v, want %v", c, groups[c], want[c])
			}
		}
	}
}

func TestLengthClassesRejectsDegenerate(t *testing.T) {
	zero := geom.NewLink(0, 1, geom.Point{}, geom.Point{})
	if _, err := LengthClasses([]geom.Link{zero}); err == nil {
		t.Fatal("zero-length link did not error")
	}
	tiny := geom.NewLink(0, 1, geom.Point{}, geom.Point{X: 5e-324})
	huge := geom.NewLink(2, 3, geom.Point{}, geom.Point{X: 1e308})
	if _, err := LengthClasses([]geom.Link{tiny, huge}); err == nil {
		t.Fatal("overflowing diversity did not error")
	}
}

// TestLengthClassUsesMultipleClasses: on a diverse instance the strategy must
// actually exercise the per-class path.
func TestLengthClassUsesMultipleClasses(t *testing.T) {
	links := instanceLinks(t, "cluster", 300, 3)
	_, diag, err := lengthClassStrategy{}.Schedule(context.Background(), links, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if diag.Classes < 2 {
		t.Fatalf("cluster instance produced %d length classes, want >= 2", diag.Classes)
	}
}

// TestLengthClassRefineOnArb: the arbitrary-power graph triggers the
// Theorem-2 refinement split.
func TestLengthClassRefineOnArb(t *testing.T) {
	links := instanceLinks(t, "uniform", 200, 5)
	cfg := defaultConfig()
	cfg.Graph = GraphArbitrary
	sched, diag, err := lengthClassStrategy{}.Schedule(context.Background(), links, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diag.RefineSets < 1 {
		t.Fatalf("arb graph did not run the refinement (RefineSets=%d)", diag.RefineSets)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFamilyAtMatchesClosedForms pins every threshold family a Config or
// strategy selects against the closed forms the repository used before the
// families became the one spelling: f(x) as a closure over γ. Each
// fam.At(γ).Eval(x) must equal its closure bit for bit, across the
// escalation ladder and a γ that is not a float32, at the x where
// LogThresholdFamily switches branches and at the extremes.
func TestFamilyAtMatchesClosedForms(t *testing.T) {
	gammaClosure := func(gamma float64) func(float64) float64 {
		return func(x float64) float64 { return gamma }
	}
	powerLaw := func(delta float64) func(gamma float64) func(float64) float64 {
		return func(gamma float64) func(float64) float64 {
			pw := func(x float64) float64 { return math.Pow(x, delta) }
			if delta == 0.5 {
				pw = math.Sqrt
			}
			return func(x float64) float64 { return gamma * pw(x) }
		}
	}
	logThreshold := func(alpha float64) func(gamma float64) func(float64) float64 {
		return func(gamma float64) func(float64) float64 {
			exp := 2 / (alpha - 2)
			return func(x float64) float64 {
				if x <= 2 {
					return gamma
				}
				return gamma * math.Max(1, math.Pow(math.Log2(x), exp))
			}
		}
	}
	naive := func(k float64) func(float64) float64 {
		return func(x float64) float64 { return k * x }
	}
	cases := []struct {
		fam    conflict.Family
		closed func(gamma float64) func(float64) float64
	}{
		{conflict.GammaFamily(), gammaClosure},
		{conflict.PowerLawFamily(0.5), powerLaw(0.5)},
		{conflict.PowerLawFamily(0.3), powerLaw(0.3)},
		{conflict.LogThresholdFamily(3), logThreshold(3)},
		{conflict.LogThresholdFamily(2.05), logThreshold(2.05)},
		{NaiveFamily(), naive},
	}
	var gammas []float64
	for g, k := 2.0, 0; k <= 8; g, k = g*1.5, k+1 {
		gammas = append(gammas, g)
	}
	gammas = append(gammas, 2.1) // not a float32
	xs := []float64{1, 1.5, 2, math.Nextafter(2, 3), 3, 1e3, 1e300}
	for _, c := range cases {
		for _, gamma := range gammas {
			f, want := c.fam.At(gamma), c.closed(gamma)
			for _, x := range xs {
				if got, w := f.Eval(x), want(x); math.Float64bits(got) != math.Float64bits(w) {
					t.Errorf("%v: Eval(%g) = %v, closed form %v", f, x, got, w)
				}
			}
		}
	}
}

// TestNaiveFamilyProtocolModel: the strawman's conflict condition at
// guard-zone multiple γ is d(i,j) <= γ·max(l_i, l_j).
func TestNaiveFamilyProtocolModel(t *testing.T) {
	f := NaiveFamily().At(2)
	a := geom.NewLink(0, 1, geom.Point{X: 0}, geom.Point{X: 1})     // length 1
	b := geom.NewLink(2, 3, geom.Point{X: 3.5}, geom.Point{X: 7.5}) // length 4, d(a,b)=2.5
	if !conflict.Conflicting(f, a, b) {
		t.Fatal("links within 2·lmax should conflict under protocol(2)")
	}
	c := geom.NewLink(2, 3, geom.Point{X: 9.5}, geom.Point{X: 13.5}) // d(a,c)=8.5 > 2·4
	if conflict.Conflicting(f, a, c) {
		t.Fatal("links beyond 2·lmax should not conflict under protocol(2)")
	}
}

// TestScheduleInvariants is the cross-cutting contract suite: for every
// strategy over a grid of small instances, (1) every slot is an independent
// set of the strategy's own conflict graph, (2) the schedule is structurally
// valid with every link appearing at least once per period, and (3) the
// reported rate is exactly min-occurrences/period. All four strategies are
// pinned to the same contract.
func TestScheduleInvariants(t *testing.T) {
	type inst struct {
		preset string
		n      int
		seed   uint64
	}
	instances := []inst{
		{"uniform", 40, 1},
		{"uniform", 150, 2},
		{"cluster", 120, 3},
		{"line", 60, 4},
		{"grid", 100, 5},
		{"annulus", 80, 6},
	}
	graphs := []string{GraphGamma, GraphOblivious, GraphArbitrary}
	for _, in := range instances {
		links := instanceLinks(t, in.preset, in.n, in.seed)
		for _, gk := range graphs {
			cfg := defaultConfig()
			cfg.Graph = gk
			for _, s := range All() {
				sched, diag, err := s.Schedule(context.Background(), links, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", in.preset, gk, s.Name(), err)
				}
				// (2) structural validity: in-range indices, no in-slot
				// duplicates, every link scheduled.
				if err := sched.Validate(); err != nil {
					t.Fatalf("%s/%s/%s: %v", in.preset, gk, s.Name(), err)
				}
				if sched.Period() != diag.NumColors {
					t.Fatalf("%s/%s/%s: period %d != Diag.NumColors %d",
						in.preset, gk, s.Name(), sched.Period(), diag.NumColors)
				}
				// (1) slot independence in the strategy's conflict graph,
				// rebuilt from scratch at the Config's γ.
				fam, err := cfg.ConflictFamily()
				if err != nil {
					t.Fatal(err)
				}
				if s.Name() == Naive {
					fam = NaiveFamily()
				}
				g, err := conflict.BuildLookaheadCtx(context.Background(), links, fam, cfg.Gamma)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", in.preset, gk, s.Name(), err)
				}
				for k, slot := range sched.Slots {
					if !isIndependent(g, slot) {
						t.Fatalf("%s/%s/%s: slot %d not independent in %s",
							in.preset, gk, s.Name(), k, fam.At(cfg.Gamma))
					}
				}
				// The degree diagnostics describe that graph (lengthclass
				// colors per-class graphs instead), and first-fit in length
				// order needs at most MaxBackDegree+1 colors.
				if s.Name() != LengthClass && (diag.MaxDegree != g.MaxDegree() || diag.MaxBackDegree != g.MaxBackDegree()) {
					t.Fatalf("%s/%s/%s: Diag degrees %d/%d, graph %d/%d", in.preset, gk, s.Name(),
						diag.MaxDegree, diag.MaxBackDegree, g.MaxDegree(), g.MaxBackDegree())
				}
				if diag.MaxBackDegree > diag.MaxDegree {
					t.Fatalf("%s/%s/%s: back-degree %d above degree %d", in.preset, gk, s.Name(), diag.MaxBackDegree, diag.MaxDegree)
				}
				if s.Name() == Greedy && diag.NumColors > diag.MaxBackDegree+1 {
					t.Fatalf("%s/%s/%s: %d colors, above MaxBackDegree+1 = %d", in.preset, gk, s.Name(),
						diag.NumColors, diag.MaxBackDegree+1)
				}
				// (3) rate semantics: exactly min-occurrences over period.
				occ := sched.Occurrences()
				minOcc := math.MaxInt
				for _, o := range occ {
					if o < minOcc {
						minOcc = o
					}
				}
				if want := float64(minOcc) / float64(sched.Period()); sched.Rate() != want {
					t.Fatalf("%s/%s/%s: rate %g != minOcc/period %g",
						in.preset, gk, s.Name(), sched.Rate(), want)
				}
			}
		}
	}
}

// TestStableSlotOrder pins the stable-slot-order contract documented on
// Strategy: every strategy, on every graph kind, emits each slot's members
// in strictly increasing link-index order. schedule.VerifyCache hashes slots
// order-insensitively so correctness does not hinge on this, but the
// contract keeps schedules byte-comparable and cheap to diff.
func TestStableSlotOrder(t *testing.T) {
	for _, preset := range []string{"uniform", "cluster", "annulus"} {
		links := instanceLinks(t, preset, 150, 9)
		for _, gk := range []string{GraphGamma, GraphOblivious, GraphArbitrary} {
			cfg := defaultConfig()
			cfg.Graph = gk
			for _, s := range All() {
				sched, _, err := s.Schedule(context.Background(), links, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", preset, gk, s.Name(), err)
				}
				for k, slot := range sched.Slots {
					for j := 1; j < len(slot); j++ {
						if slot[j] <= slot[j-1] {
							t.Fatalf("%s/%s/%s: slot %d not in increasing link order at %d: %v",
								preset, gk, s.Name(), k, j, slot)
						}
					}
				}
			}
		}
	}
}

// TestStrategiesDeterministic: same inputs, same schedule — byte-for-byte.
func TestStrategiesDeterministic(t *testing.T) {
	links := instanceLinks(t, "uniform", 200, 7)
	for _, s := range All() {
		s1, _, err := s.Schedule(context.Background(), links, defaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s2, _, err := s.Schedule(context.Background(), links, defaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(s1.Slots) != len(s2.Slots) {
			t.Fatalf("%s: nondeterministic period", s.Name())
		}
		for k := range s1.Slots {
			if len(s1.Slots[k]) != len(s2.Slots[k]) {
				t.Fatalf("%s: slot %d differs between runs", s.Name(), k)
			}
			for j := range s1.Slots[k] {
				if s1.Slots[k][j] != s2.Slots[k][j] {
					t.Fatalf("%s: slot %d differs between runs", s.Name(), k)
				}
			}
		}
	}
}

// isIndependent reports whether the given vertex subset of g is pairwise
// non-adjacent.
func isIndependent(g *conflict.Graph, set []int) bool {
	mark := make([]bool, g.N())
	for _, v := range set {
		mark[v] = true
	}
	for _, v := range set {
		for _, w := range g.Row(v) {
			if mark[w] {
				return false
			}
		}
	}
	return true
}
