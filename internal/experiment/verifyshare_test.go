package experiment

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"aggrate/internal/rng"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
)

// TestSharedVerifyMatchesCold: a shuffled sequence of specs over two
// deployments — every strategy under each power scheme at γ 1.5, 2 and 3,
// with some specs repeated — runs through one Runner whose four workers
// share each deployment's power suppliers and slot-margin caches. Every
// result must equal a cold Run of the same spec in every field but the
// timings (which carry the verify work counters), margins bit for bit.
func TestSharedVerifyMatchesCold(t *testing.T) {
	sc := uniformScenario(t)
	var specs []Spec
	for _, seed := range []uint64{3, 4} {
		for _, gamma := range []float64{1.5, 2, 3} {
			for _, pw := range powerSchemes {
				for _, algo := range scheduler.Names() {
					sp := NewSpec(sc, 600, seed)
					sp.Gamma, sp.Power, sp.Algo = gamma, pw, algo
					if pw == PowerGlobal {
						sp.Graph = GraphArbitrary
					}
					specs = append(specs, sp)
				}
			}
		}
	}
	r := rng.New(23)
	perm := r.Perm(len(specs))
	seq := make([]Spec, 0, len(specs)+len(specs)/4)
	for _, i := range perm {
		seq = append(seq, specs[i])
	}
	for i := 0; i < len(specs)/4; i++ {
		seq = append(seq, specs[perm[i]])
	}
	dc := NewDeployCache(0)
	out, err := (&Runner{Workers: 4, Deploy: dc}).Run(context.Background(), seq)
	if err != nil {
		t.Fatalf("Runner.Run: %v", err)
	}
	reused := int64(0)
	for i, spec := range seq {
		cold := Run(context.Background(), spec)
		got := out[i]
		if math.Float64bits(got.Margin) != math.Float64bits(cold.Margin) {
			t.Fatalf("spec %d (%s/%s/γ=%g): shared margin %x != cold %x", i, spec.Power, spec.Algo,
				spec.Gamma, math.Float64bits(got.Margin), math.Float64bits(cold.Margin))
		}
		reused += got.Timings.VerifyReusedSlots
		gt := *got
		gt.Timings, cold.Timings = Timings{}, Timings{}
		gj, _ := json.Marshal(gt)
		cj, _ := json.Marshal(cold)
		if string(gj) != string(cj) {
			t.Fatalf("spec %d: shared result differs from cold run\nshared: %s\ncold:   %s", i, gj, cj)
		}
	}
	// Repeats and γ twins must have found margins another spec computed.
	if reused == 0 {
		t.Fatal("no spec reused a slot margin through the shared caches")
	}
}

// TestDeployCacheVerifyBudget: the slot-margin caches of every deployment
// draw on the DeployCache's one pool, so the bytes they retain stay within
// one budget however many deployments the cache holds, and an evicted
// deployment returns its lines to the pool. Results do not depend on the
// budget.
func TestDeployCacheVerifyBudget(t *testing.T) {
	sc := uniformScenario(t)
	var specs []Spec
	for seed := uint64(1); seed <= 4; seed++ {
		for _, pw := range []string{PowerUniform, PowerMean, PowerLinear} {
			sp := NewSpec(sc, 2000, seed)
			sp.Power = pw
			specs = append(specs, sp)
		}
	}
	run := func(entries int, budget int64) (*DeployCache, []*Result) {
		dc := NewDeployCache(entries)
		dc.verify = schedule.NewVerifyPool(budget)
		out, err := (&Runner{Workers: 2, Deploy: dc}).Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range out {
			if r.Err != "" {
				t.Fatalf("spec %d: %s", i, r.Err)
			}
			r.Timings = Timings{}
		}
		return dc, out
	}

	roomy, want := run(len(specs), 1<<30)
	full := roomy.verify.Bytes()
	if full <= 0 {
		t.Fatal("no verify bytes retained")
	}
	// A budget a third of what four deployments retain: a per-entry budget
	// of that size would hold every deployment's lines.
	budget := full / 3
	tight, got := run(len(specs), budget)
	if b := tight.verify.Bytes(); b > budget {
		t.Fatalf("four deployments retain %d verify bytes, over the shared budget %d", b, budget)
	}
	for i := range want {
		wj, _ := json.Marshal(want[i])
		gj, _ := json.Marshal(got[i])
		if string(wj) != string(gj) {
			t.Fatalf("spec %d differs under a tight budget\nroomy: %s\ntight: %s", i, wj, gj)
		}
	}

	// With room for one deployment, each eviction releases the evicted
	// entry's lines: only the last deployment's cache keeps any.
	one := NewDeployCache(1)
	var vcs []*schedule.VerifyCache
	for _, spec := range specs {
		inst, _, err := newInstance(context.Background(), spec, nil, one)
		if err != nil {
			t.Fatal(err)
		}
		if len(vcs) == 0 || vcs[len(vcs)-1] != inst.vc {
			vcs = append(vcs, inst.vc)
		}
	}
	if len(vcs) != 4 {
		t.Fatalf("%d distinct margin caches over 4 deployments", len(vcs))
	}
	for i, vc := range vcs {
		if live := i == len(vcs)-1; live != (vc.Len()+vc.GridLen() > 0) {
			t.Fatalf("deployment %d (live=%t) holds %d margins, %d grids", i, live, vc.Len(), vc.GridLen())
		}
	}
}
