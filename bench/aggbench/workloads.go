package main

import (
	"fmt"
	"math"

	"aggrate/internal/experiment"
	"aggrate/internal/rng"
	"aggrate/internal/scenario"
	"aggrate/internal/schedule"
	"aggrate/internal/scheduler"
	"aggrate/internal/service"
	"aggrate/internal/sinr"
)

// workload is one named input set. In-process workloads certify a spec list
// through experiment.Runner in a child process per repetition; serve-mix
// drives `aggrate serve` with an open loop of jobs (serve == true).
type workload struct {
	name  string
	serve bool
	specs func(seed uint64, toy bool) []experiment.Spec
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "mean-1m", specs: meanSpecs},
	{name: "sweep-50k", specs: sweepSpecs},
	{name: "global-10k", specs: globalSpecs},
	{name: "serve-mix", serve: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// specList returns the specs a workload certifies for a seed. For serve-mix
// these are the specs of its job stream, in due order.
func (w workload) specList(seed uint64, seconds float64, toy bool) []experiment.Spec {
	if !w.serve {
		return w.specs(seed, toy)
	}
	jobs := serveTraffic(seed, seconds, toy)
	specs := make([]experiment.Spec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec
	}
	return specs
}

func preset(name string) scenario.Spec {
	sc, err := scenario.Lookup(name)
	if err != nil {
		panic(err) // the preset names below are constants
	}
	return sc
}

// sinkStride spreads mean-1m's sinks over the nodes; it is prime, so
// coprime to both sizes the workload runs at.
const sinkStride = 104729

// meanSpecs is the ROADMAP's reference instance, the `aggrate run` default
// spec at n = 1e6: the uniform deployment of seed 1. The seed picks the
// node the tree aggregates to, and seed 1 keeps the default sink 0. The
// points stay those of seed 1 because at this size the EMST's cost depends
// on the point set (4.5 s for one seed, 11 s for another on the same
// host), which in a one-spec workload would swamp any change being
// measured; the sink changes the links' directions, so the schedule and
// margin, at nearly the same work.
func meanSpecs(seed uint64, toy bool) []experiment.Spec {
	n := 1_000_000
	if toy {
		n = 2000
	}
	sp := experiment.NewSpec(preset("uniform"), n, 1)
	sp.Sink = int((seed - 1) * sinkStride % uint64(n))
	return []experiment.Spec{sp}
}

// sweepSpecs runs 25 n=2000 deployments (50,000 nodes in all), each under
// every strategy, three oblivious power schemes and two initial γ. How far
// uniform and linear power escalate γ varies from one deployment to the
// next by up to a factor of four in work; many small deployments per seed
// keep that variance, and the host's, from swamping a run.
func sweepSpecs(seed uint64, toy bool) []experiment.Spec {
	deployments := uint64(25)
	if toy {
		deployments = 2
	}
	var specs []experiment.Spec
	for d := uint64(0); d < deployments; d++ {
		for _, gamma := range []float64{2, 3} {
			for _, pw := range []string{experiment.PowerUniform, experiment.PowerMean, experiment.PowerLinear} {
				for _, algo := range scheduler.Names() {
					sp := experiment.NewSpec(preset("uniform"), 2000, seed+d)
					sp.Power, sp.Algo, sp.Gamma = pw, algo, gamma
					specs = append(specs, sp)
				}
			}
		}
	}
	return specs
}

// globalSpecs is the global-power-control regime on high-diversity
// deployments.
func globalSpecs(seed uint64, toy bool) []experiment.Spec {
	n := 10_000
	if toy {
		n = 1000
	}
	var specs []experiment.Spec
	for _, sc := range []string{"hotspot-multi", "cluster"} {
		for s := uint64(0); s < 2; s++ {
			for _, algo := range []string{scheduler.Greedy, scheduler.LengthClass} {
				sp := experiment.NewSpec(preset(sc), n, seed+s)
				sp.Graph, sp.Power, sp.Algo = experiment.GraphArbitrary, experiment.PowerGlobal, algo
				specs = append(specs, sp)
			}
		}
	}
	return specs
}

// serveJob is one job of the serve-mix open loop: when it is due (seconds
// from the start of the loop), what the client posts, and the spec the
// server expands it to.
type serveJob struct {
	due  float64
	req  service.JobRequest
	spec experiment.Spec
}

// serveRate is the open loop's arrival rate (jobs/s). On two cores it keeps
// the server's single job executor 40% busy while the host runs at full
// speed and under 80% when the host slows by 1.7×, as it does for minutes
// at a time; at 10 jobs/s a slowed host saturated the executor and the
// backlog swamped the run. A 20 s run sends 120 jobs.
const serveRate = 6.0

// serveTraffic draws the job stream for a seed: round(serveRate·seconds)
// jobs, one due at a uniform random time in each 1/serveRate slot. That is
// an open loop at a fixed rate whose gaps vary, without the bursts of a
// Poisson stream, which made latency percentiles swing from seed to seed.
// Job k's content does not depend on the run length, so a shorter run sends
// a prefix of a longer run's jobs. Every choice comes from a shuffled deck,
// so each seed sends the same mix and only the deployments, the order and
// the arrival jitter vary: 60% fresh deployments, 25% exact repeats of an
// earlier job (result cache) and 15% variants of an earlier deployment
// under another algorithm or power (instance and stage caches). Fresh jobs
// cycle through every (scenario, n) pair and both colorings.
func serveTraffic(seed uint64, seconds float64, toy bool) []serveJob {
	rt := rng.New(seed ^ 0x7a11_0c1e_55ed_0001)
	due := make([]float64, int(math.Round(serveRate*seconds)))
	for i := range due {
		due[i] = (float64(i) + rt.Float64()) / serveRate
	}

	r := rng.New(seed ^ 0x5e7e_aa11_0b1e_c7ed)
	ns := []int{1000, 2000, 5000, 10000}
	if toy {
		ns = []int{300, 600, 1000, 2000}
	}
	scenarios := []string{"uniform", "cluster", "hotspot"}
	kinds := &deck[string]{r: r}
	for _, kc := range []struct {
		kind  string
		count int
	}{{"fresh", 12}, {"repeat", 5}, {"variant", 3}} {
		for i := 0; i < kc.count; i++ {
			kinds.items = append(kinds.items, kc.kind)
		}
	}
	deployments := &deck[[2]int]{r: r}
	for s := range scenarios {
		for n := range ns {
			deployments.items = append(deployments.items, [2]int{s, n})
		}
	}
	algos := &deck[string]{r: r, items: []string{scheduler.Greedy, scheduler.JP}}
	sizes := &deck[int]{r: r, items: []int{0, 1, 2, 3}}
	// Power variants use global power, the one scheme besides mean that
	// certifies every scenario here without exhausting γ escalation; they
	// stay on the two smaller sizes, where its dense solves take tenths of a
	// second rather than seconds.
	smallSizes := &deck[int]{r: r, items: []int{0, 1}}
	variants := &deck[string]{r: r, items: []string{experiment.PowerGlobal, scheduler.DSatur, scheduler.LengthClass}}

	latest := make(map[int]service.JobRequest) // most recent fresh job per size
	base := func(size int) service.JobRequest {
		for d := 0; ; d++ {
			if req, ok := latest[size-d]; ok {
				return req
			}
			if req, ok := latest[size+d]; ok {
				return req
			}
		}
	}
	jobs := make([]serveJob, len(due))
	for k := range jobs {
		kind := kinds.draw()
		if len(latest) == 0 {
			kind = "fresh"
		}
		var req service.JobRequest
		switch kind {
		case "fresh":
			d := deployments.draw()
			req = service.JobRequest{
				Scenarios: []string{scenarios[d[0]]}, Ns: []int{ns[d[1]]},
				Seed:   1 + r.Uint64()%1_000_000_000,
				Powers: []string{experiment.PowerMean}, Algos: []string{algos.draw()},
			}
			latest[d[1]] = req
		case "repeat":
			req = base(sizes.draw())
		case "variant":
			v := variants.draw()
			if v == experiment.PowerGlobal {
				small := smallSizes.draw()
				var ok bool
				if req, ok = latest[small]; !ok {
					req, ok = latest[1-small]
				}
				if ok {
					req.Powers = []string{v}
					break
				}
				v = scheduler.DSatur // no small deployment yet
			}
			req = base(sizes.draw())
			req.Algos = []string{v}
		}
		jobs[k] = serveJob{due: due[k], req: req, spec: jobSpec(req)}
	}
	return jobs
}

// deck deals its items in shuffled rounds, each round holding every item
// once, so proportions hold exactly over every round.
type deck[T any] struct {
	r     *rng.RNG
	items []T
	left  []T
}

func (d *deck[T]) draw() T {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.items...)
		d.r.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	x := d.left[0]
	d.left = d.left[1:]
	return x
}

// jobSpec is the spec the service expands a one-spec JobRequest to, with
// the service's defaults; its SpecKey equals the key the server reports.
func jobSpec(req service.JobRequest) experiment.Spec {
	return experiment.Spec{
		Scenario:     preset(req.Scenarios[0]),
		N:            req.Ns[0],
		Seed:         req.Seed,
		Power:        req.Powers[0],
		Graph:        experiment.GraphOblivious,
		Algo:         req.Algos[0],
		SINR:         sinr.Params{Alpha: 3, Beta: 2, Noise: 0, Epsilon: 0.5},
		Verify:       true,
		VerifyEngine: schedule.EngineFast,
	}
}
