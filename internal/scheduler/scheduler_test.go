package scheduler

import (
	"context"
	"math"
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

// TestNaiveFuncProtocolModel: the strawman's conflict condition is
// d(i,j) <= k·max(l_i, l_j).
func TestNaiveFuncProtocolModel(t *testing.T) {
	f := NaiveFunc(2)
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
					if !g.IsIndependent(slot) {
						t.Fatalf("%s/%s/%s: slot %d not independent in %s",
							in.preset, gk, s.Name(), k, diag.Func.Name)
					}
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
