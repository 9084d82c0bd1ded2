// Package scheduler defines the pluggable strategy layer between the
// conflict-graph machinery and the experiment harness: a Strategy turns a
// link set into a TDMA schedule, and the registry lets the CLI and the batch
// runner fan out over algorithms the same way they fan out over scenarios,
// sizes, seeds and power schemes.
//
// Five strategies implement the interface:
//
//   - greedy      — one conflict graph over all links, first-fit colored in
//     non-increasing length order (Sec. 3 / Theorem 2's coloring half). It
//     is the schedule whose rate the repository measures: links of every
//     length class share slots, which only one graph over all links allows;
//   - lengthclass — the per-class baseline: partition the links into dyadic
//     length classes, color each class's conflict graph separately
//     (splitting slots by the Theorem-2 refinement on the G_arb graph), and
//     round-robin interleave the per-class schedules. Classes never share a
//     slot, so its period is the sum of the per-class color counts, Θ(log Δ)
//     by construction — the contrast that shows what cross-class slot reuse
//     buys;
//   - dsatur      — DSATUR over the same global conflict graph, a stronger
//     pure graph-coloring baseline;
//   - jp          — parallel Jones–Plassmann random-priority coloring of
//     the same global conflict graph (the shared-memory analogue of the
//     distributed colorings the paper's line of work builds on);
//     deterministic for its fixed internal seed regardless of GOMAXPROCS;
//   - naive       — protocol-model distance TDMA: links conflict whenever
//     they are within γ times the longer length of each other, colored
//     first-fit in input order with no SINR or length awareness — the
//     Sec. 6 strawman.
//
// greedy, dsatur, jp and naive are one graphStrategy each, differing only
// in their threshold family and their coloring; lengthclass is the one
// strategy with a graph per class. dsatur, jp and naive visit vertices in an
// order other than the length order, so they read both directions of the
// one-sided conflict graph, which the coloring package rebuilds per call.
//
// Strategies are deterministic in (links, Config), so batch results stay
// reproducible regardless of worker scheduling.
package scheduler

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"aggrate/internal/coloring"
	"aggrate/internal/conflict"
	"aggrate/internal/geom"
	"aggrate/internal/schedule"
	"aggrate/internal/sinr"
)

// Graph kinds selectable in a Config, matching the paper's three conflict
// graphs (see internal/conflict for the threshold functions).
const (
	GraphGamma     = "gamma"
	GraphOblivious = "obl"
	GraphArbitrary = "arb"
)

// Config carries the per-run parameters a strategy needs: which conflict
// graph to schedule against and at what conflict parameter. The experiment
// layer escalates Gamma and re-invokes the strategy until the schedule
// SINR-verifies, so Schedule must be monotone-friendly: larger Gamma may
// only make slots sparser.
type Config struct {
	// Graph selects the conflict-threshold family (gamma, obl, arb).
	Graph string
	// Gamma is the conflict parameter γ. For the naive strategy it doubles
	// as the protocol-model guard-zone multiple.
	Gamma float64
	// Delta is the exponent of G^δ_γ (Graph == "obl").
	Delta float64
	// SINR supplies α for G_arb and the additive operator of the
	// Theorem-2 refinement.
	SINR sinr.Params
	// WS optionally supplies a reusable coloring workspace, so a batch
	// runner's per-worker scratch survives across instances. nil means the
	// strategy allocates a fresh one. A Workspace is not safe for concurrent
	// use; two simultaneous Schedule calls must not share one.
	WS *coloring.Workspace
	// Lookahead, when non-nil, serves conflict-graph construction through a
	// γ-lookahead cache: the first build per link set is strength-annotated
	// at the lookahead ceiling, and later attempts of a γ-escalation ladder
	// (any γ ≤ Lookahead.GammaMax()) are materialized by a linear filter
	// scan instead of a grid rebuild. All strategies route their builds —
	// including lengthclass's per-class graphs — through it. nil means every
	// build is fresh, at the Config's γ. Graphs are bit-identical either way;
	// only Diag's build-timing split changes.
	Lookahead *conflict.Lookahead
}

// ConflictFamily materializes the γ-indexed conflict-threshold family the
// Config selects; ConflictFamily().At(c.Gamma) is the concrete threshold.
// The factored (γ, h) form is what lets a lookahead build at an escalated γ
// serve every smaller γ exactly.
func (c Config) ConflictFamily() (conflict.Family, error) {
	switch c.Graph {
	case GraphGamma:
		return conflict.GammaFamily(), nil
	case GraphOblivious:
		return conflict.PowerLawFamily(c.Delta), nil
	case GraphArbitrary:
		return conflict.LogThresholdFamily(c.SINR.Alpha), nil
	default:
		return conflict.Family{}, fmt.Errorf("scheduler: unknown graph kind %q (have %v)", c.Graph,
			[]string{GraphGamma, GraphOblivious, GraphArbitrary})
	}
}

// Diag reports what a strategy did, for metrics and invariant checks. It
// holds no per-link or per-edge data: the conflict graph and the coloring
// die with the Schedule call (a coloring schedule's slot k is color k), so a
// cached stage product retains nothing but the schedule skeleton.
type Diag struct {
	// NumColors is the schedule period (total distinct slots).
	NumColors int
	// Classes is the number of non-empty dyadic length classes
	// (lengthclass only).
	Classes int
	// RefineSets is the largest Theorem-2 refinement partition applied
	// within a class (lengthclass on G_arb only).
	RefineSets int
	// Edges, MaxDegree, AvgDegree describe the conflict graph(s) the
	// strategy colored; for lengthclass they aggregate over the per-class
	// graphs (cross-class edges are never materialized).
	Edges     int
	MaxDegree int
	AvgDegree float64
	// MaxBackDegree is the largest number of conflicting links any link has
	// before it in first-fit order (length non-increasing): the longest row
	// of the one-sided conflict graph, the maximum over the per-class
	// graphs for lengthclass. First-fit in length order uses at most
	// MaxBackDegree+1 colors.
	MaxBackDegree int
	// BuildSec, OrderSec and ColorSec split the strategy's wall-clock
	// between graph construction, vertex-order computation (the length sort
	// of greedy/lengthclass; zero for orderless colorings), and the
	// coloring/interleaving itself.
	BuildSec float64
	OrderSec float64
	ColorSec float64
	// BuildFilterSec is the wall-clock of lookahead cache service — link-set
	// hashing plus the γ filter scan — kept out of BuildSec so the
	// full-build vs filter split is visible in metrics. BuildReused reports
	// that at least one conflict graph of this Schedule call was served by
	// filtering a cached strength-annotated build instead of a fresh build.
	BuildFilterSec float64
	BuildReused    bool
	// BuildStats aggregates the bucketed conflict build's pruning counters
	// over every graph this Schedule call constructed (per-class graphs
	// included) — the hardware-independent candidate-efficiency signal
	// experiment.TestPipelineWorkCounters holds. Lookahead-filtered graphs
	// report the annotated build's counters.
	BuildStats conflict.BuildStats
}

// Strategy is one scheduling algorithm. Schedule must return a schedule over
// exactly the given links (same indices) in which every link transmits at
// least once per period. Schedule must honor ctx: a cancel or deadline stops
// the conflict-graph build at a chunk boundary and returns ctx.Err() instead
// of a schedule. Results are deterministic in (links, cfg) whenever ctx does
// not fire.
//
// Every strategy also honors the stable-slot-order contract: each emitted
// slot lists its members in strictly increasing link-index order. The
// incremental verification cache (schedule.VerifyCache) hashes slot content
// order-insensitively, so correctness never depends on this — but stable
// order keeps schedules byte-comparable across runs and strategies, and the
// invariant is pinned by TestStableSlotOrder.
type Strategy interface {
	Name() string
	Schedule(ctx context.Context, links []geom.Link, cfg Config) (*schedule.Schedule, Diag, error)
}

// Strategy names, as accepted by Lookup and the CLI --algo flag.
const (
	Greedy      = "greedy"
	LengthClass = "lengthclass"
	DSatur      = "dsatur"
	JP          = "jp"
	Naive       = "naive"
)

// Names lists the registered strategies in canonical order.
func Names() []string { return []string{Greedy, LengthClass, DSatur, JP, Naive} }

// Lookup resolves a strategy by name.
func Lookup(name string) (Strategy, error) {
	switch name {
	case Greedy:
		return graphStrategy{Greedy, Config.ConflictFamily, func(g *conflict.Graph, ws *coloring.Workspace, colors []int, d *Diag) int {
			t0 := time.Now()
			order := ws.LengthOrder(g)
			d.OrderSec = time.Since(t0).Seconds()
			return ws.FirstFit(g, order, colors)
		}}, nil
	case LengthClass:
		return lengthClassStrategy{}, nil
	case DSatur:
		return graphStrategy{DSatur, Config.ConflictFamily, func(g *conflict.Graph, ws *coloring.Workspace, colors []int, _ *Diag) int {
			return ws.DSatur(g, colors)
		}}, nil
	case JP:
		return graphStrategy{JP, Config.ConflictFamily, func(g *conflict.Graph, ws *coloring.Workspace, colors []int, _ *Diag) int {
			return ws.JP(g, jpSeed, colors)
		}}, nil
	case Naive:
		return graphStrategy{Naive, naiveFamily, func(g *conflict.Graph, ws *coloring.Workspace, colors []int, _ *Diag) int {
			return ws.FirstFitAnyOrder(g, coloring.IndexOrder(g.N()), colors)
		}}, nil
	default:
		return nil, fmt.Errorf("scheduler: unknown algorithm %q (have %v)", name, Names())
	}
}

// buildGraph constructs the conflict graph of links under fam.At(gamma)
// through the γ-lookahead cache (full annotated build on first contact with
// a link set, filter scan afterwards), accumulating timings into d. Without
// cfg.Lookahead a fresh Lookahead at gamma makes every call a full build.
func buildGraph(ctx context.Context, links []geom.Link, fam conflict.Family, gamma float64,
	cfg Config, d *Diag) (*conflict.Graph, error) {
	la := cfg.Lookahead
	if la == nil {
		la = conflict.NewLookahead(gamma)
	}
	g, st, err := la.GraphFor(ctx, links, fam, gamma)
	if cfg.Lookahead == nil {
		// A private Lookahead never filters: its cache bookkeeping is part
		// of the build.
		st.BuildSec, st.FilterSec = st.BuildSec+st.FilterSec, 0
	}
	d.BuildSec += st.BuildSec
	d.BuildFilterSec += st.FilterSec
	if st.Reused {
		d.BuildReused = true
	}
	if g != nil {
		d.BuildStats.Add(g.Stats)
	}
	return g, err
}

// graphStrategy is every strategy that colors one conflict graph over all
// links: build the graph of the family at cfg.Gamma (through the lookahead
// cache when the Config carries one), color it (with the Config's Workspace
// — or a fresh one — and a pre-sized palette; color may split its time into
// Diag.OrderSec), and emit the coloring schedule. A bad graph kind is
// rejected by family before any work; a ctx cancel surfaces from the build.
type graphStrategy struct {
	name   string
	family func(Config) (conflict.Family, error)
	color  func(g *conflict.Graph, ws *coloring.Workspace, colors []int, d *Diag) int
}

func (s graphStrategy) Name() string { return s.name }

func (s graphStrategy) Schedule(ctx context.Context, links []geom.Link, cfg Config) (*schedule.Schedule, Diag, error) {
	var d Diag
	fam, err := s.family(cfg)
	if err != nil {
		return nil, d, err
	}
	g, err := buildGraph(ctx, links, fam, cfg.Gamma, cfg, &d)
	if err != nil {
		return nil, d, err
	}

	ws := cfg.WS
	t0 := time.Now()
	colors := make([]int, g.N())
	if ws == nil {
		ws = coloring.NewWorkspace()
	}
	numColors := s.color(g, ws, colors, &d)
	d.ColorSec = time.Since(t0).Seconds() - d.OrderSec
	sched, err := schedule.FromColoring(links, colors)
	if err != nil {
		return nil, d, err
	}
	d.NumColors = numColors
	d.Edges, d.MaxDegree, d.AvgDegree = g.Edges(), g.MaxDegree(), g.AverageDegree()
	d.MaxBackDegree = g.MaxBackDegree()
	return sched, d, nil
}

// jpSeed is the fixed priority seed of the jp strategy: schedules stay
// deterministic in (links, Config) like every other strategy.
const jpSeed = 0x51ce5e11a9b6d7c3

// NaiveFamily is the protocol-model threshold of the naive strategy, the
// Sec. 6 strawman that silences everything within γ·l_max of a transmitting
// pair: f_γ(x) = γ·x gives d(i,j) ≤ γ·max(l_i, l_j) as the conflict
// condition, with the guard-zone multiple γ, so the strawman rides the same
// γ-lookahead cache as the paper's families. It is monotone (so the
// bucketed build stays exact) but deliberately not sub-linear — this
// strategy is outside the paper's framework on purpose.
func NaiveFamily() conflict.Family {
	return conflict.Family{Name: "protocol", H: func(x float64) float64 { return x }}
}

// naiveFamily is the naive strategy's family, after rejecting a bogus graph
// kind like every other strategy.
func naiveFamily(cfg Config) (conflict.Family, error) {
	if _, err := cfg.ConflictFamily(); err != nil {
		return conflict.Family{}, err
	}
	return NaiveFamily(), nil
}

// lengthClassStrategy is the per-class baseline: partition the links into
// dyadic length classes — within a class lengths differ by less than a
// factor 2, so the class's conflict graph is near-uniform — color each
// class separately, and round-robin interleave the per-class schedules.
// No slot holds links of two classes, so the period is Σ_c χ_c = Θ(log Δ);
// the greedy strategy's one graph over all links is what lets classes
// share slots. On G_arb the Theorem-2 refinement additionally splits
// each color class into sets with I(i, S⁺ᵢ) < 1, the feasibility device of
// Theorem 3's global-power schedule.
//
// Cost note: on G_arb the per-class coloring.Refine is quadratic in the
// class size and re-runs on every γ escalation, so low-diversity instances
// (most links in one class, e.g. the grid scenario) pay the same O(m²) the
// --refine flag documents as "slow above ~20k links". The constant is
// small: lengths are computed once per class and each pair term is one
// squared endpoint distance, a square root and, for integer α, two or
// three multiplies (sinr.Params.AddOpSum). Over the same pairs this runs
// about 3× faster than the math.Pow form (BenchmarkRefine, one 2,000-link
// class: 161 → 51 ms, medians of five alternating runs on a 2-vCPU Xeon).
type lengthClassStrategy struct{}

func (lengthClassStrategy) Name() string { return LengthClass }

func (lengthClassStrategy) Schedule(ctx context.Context, links []geom.Link, cfg Config) (*schedule.Schedule, Diag, error) {
	fam, err := cfg.ConflictFamily()
	if err != nil {
		return nil, Diag{}, err
	}
	var d Diag
	if len(links) == 0 {
		return schedule.New(links, nil), d, nil
	}
	classes, err := LengthClasses(links)
	if err != nil {
		return nil, d, err
	}
	d.Classes = len(classes)

	// Per-class schedules, classes in increasing length order. classSlots[c]
	// lists the slots of class c in global link indices. One Workspace and
	// one densify scratch are threaded through all classes.
	ws := cfg.WS
	if ws == nil {
		ws = coloring.NewWorkspace()
	}
	var densifyScratch []int
	classSlots := make([][][]int, len(classes))
	for c, idx := range classes {
		classLinks := make([]geom.Link, len(idx))
		for k, i := range idx {
			classLinks[k] = links[i]
		}
		// Per-class graphs route through the lookahead cache too: the class
		// partition is γ-independent, so on a retry each class's annotated
		// build is found by content hash and filtered down.
		g, err := buildGraph(ctx, classLinks, fam, cfg.Gamma, cfg, &d)
		if err != nil {
			return nil, d, err
		}
		d.Edges += g.Edges()
		d.MaxDegree = max(d.MaxDegree, g.MaxDegree())
		d.MaxBackDegree = max(d.MaxBackDegree, g.MaxBackDegree())

		t0 := time.Now()
		order := ws.LengthOrder(g)
		d.OrderSec += time.Since(t0).Seconds()
		t0 = time.Now()
		colors := make([]int, g.N())
		numColors := ws.FirstFit(g, order, colors)
		// Slot key of class link k: its color, optionally subdivided by the
		// Theorem-2 refinement set on the arbitrary-power graph.
		slotOf := colors
		numSlots := numColors
		if cfg.Graph == GraphArbitrary {
			sets := coloring.Refine(classLinks, cfg.SINR)
			if len(sets) > d.RefineSets {
				d.RefineSets = len(sets)
			}
			setOf := make([]int, len(classLinks))
			for s, set := range sets {
				for _, k := range set {
					setOf[k] = s
				}
			}
			// Dense renumbering of the non-empty (color, set) pairs, ordered
			// by color then set.
			for k := range classLinks {
				slotOf[k] = colors[k]*len(sets) + setOf[k]
			}
			numSlots = densify(slotOf, &densifyScratch)
		}
		slots := make([][]int, numSlots)
		for k, s := range slotOf {
			slots[s] = append(slots[s], idx[k])
		}
		classSlots[c] = slots
		d.ColorSec += time.Since(t0).Seconds()
	}

	// Round-robin interleave: round r takes slot r of every class that still
	// has one, shortest class first — the paper's interleaving of per-class
	// schedules into one period of length Σ_c χ_c.
	var interleaved [][]int
	for r := 0; ; r++ {
		any := false
		for _, slots := range classSlots {
			if r < len(slots) {
				interleaved = append(interleaved, slots[r])
				any = true
			}
		}
		if !any {
			break
		}
	}
	sched := schedule.New(links, interleaved)
	d.NumColors = sched.Period()
	if n := len(links); n > 0 {
		d.AvgDegree = 2 * float64(d.Edges) / float64(n)
	}
	return sched, d, nil
}

// LengthClasses partitions link indices into dyadic length classes
// [l_min·2^c, l_min·2^(c+1)), dropping empty classes. The returned groups
// are ordered by increasing length and preserve input order within a group.
// Links with non-positive or non-finite lengths are rejected, as is a
// diversity too large for float64.
func LengthClasses(links []geom.Link) ([][]int, error) {
	lmin, lmax := 0.0, 0.0
	for i, l := range links {
		le := l.Length()
		if !(le > 0) || math.IsInf(le, 1) {
			return nil, fmt.Errorf("scheduler: link %d has unusable length %g", i, le)
		}
		if i == 0 || le < lmin {
			lmin = le
		}
		if le > lmax {
			lmax = le
		}
	}
	if len(links) == 0 {
		return nil, nil
	}
	ratio := lmax / lmin
	if !(ratio >= 1) || math.IsInf(ratio, 1) {
		return nil, fmt.Errorf("scheduler: length diversity %g not representable", ratio)
	}
	// Boundaries b_c = lmin·2^c, assigned by comparison (not floating log2)
	// so classification is exactly monotone in length — the same device as
	// the bucketed conflict build.
	bounds := []float64{lmin}
	for b := lmin * 2; b <= lmax; b *= 2 {
		bounds = append(bounds, b)
	}
	groups := make([][]int, len(bounds))
	for i, l := range links {
		le := l.Length()
		c := sort.SearchFloat64s(bounds, le)
		if c == len(bounds) || bounds[c] > le {
			c--
		}
		groups[c] = append(groups[c], i)
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out, nil
}

// densify renumbers arbitrary non-negative slot keys into the dense range
// [0, count) in place, preserving key order, and returns the count. It
// ranks by sorting a copy of the keys in *scratch (reused across calls and
// deduplicated in place) and binary-searching each key — no maps, which
// kept this on the lengthclass allocation profile.
func densify(keys []int, scratch *[]int) int {
	s := append((*scratch)[:0], keys...)
	sort.Ints(s)
	u := s[:0]
	for i, k := range s {
		if i == 0 || k != s[i-1] {
			u = append(u, k)
		}
	}
	*scratch = s
	for i, k := range keys {
		keys[i] = sort.SearchInts(u, k)
	}
	return len(u)
}
