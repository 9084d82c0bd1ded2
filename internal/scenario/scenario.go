// Package scenario generates the deployment pointsets the experiment
// harness schedules over. Every generator is a pure function of (n, RNG),
// so instances are reproducible across platforms from a single seed, and
// each stresses a different regime of the paper's bounds:
//
//   - Uniform:  homogeneous density, the baseline of the ICDCS tables;
//   - Cluster:  a Matérn-style cluster process — short intra-cluster MST
//     links next to long bridges, pushing length diversity Δ;
//   - Line:     collinear deployments, the 1-D worst case of Sec. 5;
//   - Grid:     a jittered lattice — near-equal link lengths, the
//     low-diversity extreme where χ(G_γ) alone governs;
//   - Annulus:  a ring with log-uniform radial density, producing
//     exponentially spread scales (large log Δ at moderate n);
//   - Hotspot:  one Gaussian hotspot — dense core, sparse uniform fringe —
//     the single-cell-tower density gradient;
//   - MultiHotspot: a mixture of hotspots at geometrically spread widths
//     plus a fringe, the multi-scale urban deployment.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"aggrate/internal/geom"
	"aggrate/internal/rng"
)

// Generator produces a deployment of n distinct points.
type Generator interface {
	// Name identifies the generator family, e.g. "uniform".
	Name() string
	// Generate returns n points drawn from r. Implementations must be
	// deterministic in (n, r-state) and must not return duplicate points.
	Generate(n int, r *rng.RNG) []geom.Point
}

// Uniform scatters points independently and uniformly in the square
// [0, Side]².
type Uniform struct {
	Side float64
}

// Name implements Generator.
func (u Uniform) Name() string { return "uniform" }

// Generate implements Generator.
func (u Uniform) Generate(n int, r *rng.RNG) []geom.Point {
	side := u.Side
	if side <= 0 {
		side = 1000
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	return dedupe(pts, r, side)
}

// Cluster is a Matérn-style cluster process: Clusters parent centers are
// scattered uniformly in [0, Side]², and each point picks a uniform parent
// and a Gaussian offset with standard deviation Sigma. Intra-cluster links
// are O(Sigma) long while the MST bridges between clusters are O(Side),
// giving high length diversity.
type Cluster struct {
	Side     float64
	Clusters int
	Sigma    float64
}

// Name implements Generator.
func (c Cluster) Name() string { return "cluster" }

// Generate implements Generator.
func (c Cluster) Generate(n int, r *rng.RNG) []geom.Point {
	side := c.Side
	if side <= 0 {
		side = 1000
	}
	k := c.Clusters
	if k <= 0 {
		k = 10
	}
	if k > n {
		k = n
	}
	sigma := c.Sigma
	if sigma <= 0 {
		sigma = side / 100
	}
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		ctr := centers[r.Intn(k)]
		pts[i] = geom.Point{
			X: ctr.X + sigma*r.NormFloat64(),
			Y: ctr.Y + sigma*r.NormFloat64(),
		}
	}
	return dedupe(pts, r, sigma)
}

// Line places points uniformly on a segment of the x-axis (Y ≡ 0), the
// paper's one-dimensional setting. geom.OnLine holds for the output.
type Line struct {
	Length float64
}

// Name implements Generator.
func (l Line) Name() string { return "line" }

// Generate implements Generator.
func (l Line) Generate(n int, r *rng.RNG) []geom.Point {
	length := l.Length
	if length <= 0 {
		length = 1000
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * length, Y: 0}
	}
	return dedupe(pts, r, length)
}

// Grid places points on a ⌈√n⌉×⌈√n⌉ lattice with spacing Spacing, each
// jittered uniformly by ±Jitter·Spacing/2 in both coordinates. With small
// jitter every MST link has nearly the same length (Δ ≈ 1), isolating the
// constant χ(G_γ) from the diversity-dependent factors.
type Grid struct {
	Spacing float64
	// Jitter ∈ [0, 1) is the fraction of the spacing used as jitter
	// amplitude.
	Jitter float64
}

// Name implements Generator.
func (g Grid) Name() string { return "grid" }

// Generate implements Generator.
func (g Grid) Generate(n int, r *rng.RNG) []geom.Point {
	sp := g.Spacing
	if sp <= 0 {
		sp = 10
	}
	jit := g.Jitter
	if jit < 0 {
		jit = 0
	}
	if jit >= 1 {
		jit = 0.99
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pts := make([]geom.Point, 0, n)
	for i := 0; len(pts) < n; i++ {
		row, col := i/cols, i%cols
		dx := (r.Float64() - 0.5) * jit * sp
		dy := (r.Float64() - 0.5) * jit * sp
		pts = append(pts, geom.Point{X: float64(col)*sp + dx, Y: float64(row)*sp + dy})
	}
	return dedupe(pts, r, sp)
}

// Annulus draws points in a ring around the origin with log-uniform radii
// in [RMin, RMax] and uniform angle. Log-uniform radius means every length
// scale between RMin and RMax is equally represented, so Δ grows to
// RMax/RMin even at small n — the stress case for the log*Δ and log log Δ
// factors.
type Annulus struct {
	RMin, RMax float64
}

// Name implements Generator.
func (a Annulus) Name() string { return "annulus" }

// Generate implements Generator.
func (a Annulus) Generate(n int, r *rng.RNG) []geom.Point {
	rmin, rmax := a.RMin, a.RMax
	if rmin <= 0 {
		rmin = 1
	}
	if rmax <= rmin {
		rmax = rmin * 1e4
	}
	logRatio := math.Log(rmax / rmin)
	pts := make([]geom.Point, n)
	for i := range pts {
		rad := rmin * math.Exp(r.Float64()*logRatio)
		ang := r.Float64() * 2 * math.Pi
		pts[i] = geom.Point{X: rad * math.Cos(ang), Y: rad * math.Sin(ang)}
	}
	return dedupe(pts, r, rmin)
}

// Hotspot is a single Gaussian hotspot in the square [0, Side]²: a fraction
// 1-Fringe of the points form a dense Gaussian core of standard deviation
// Sigma around the center, and the remaining Fringe fraction scatters
// uniformly over the whole square. The density falls off smoothly from the
// core, so MST links grow from O(Sigma/√n) inside the core to O(Side) at
// the fringe — a realistic traffic-gradient deployment that neither uniform
// (flat) nor cluster (many equal cores) covers.
type Hotspot struct {
	Side  float64
	Sigma float64
	// Fringe ∈ [0, 1) is the fraction of points drawn uniformly over the
	// square instead of from the core.
	Fringe float64
}

// Name implements Generator.
func (h Hotspot) Name() string { return "hotspot" }

// Generate implements Generator.
func (h Hotspot) Generate(n int, r *rng.RNG) []geom.Point {
	side, sigma, fringe := hotspotParams(h.Side, h.Sigma, h.Fringe)
	ctr := geom.Point{X: side / 2, Y: side / 2}
	pts := make([]geom.Point, n)
	for i := range pts {
		if r.Float64() < fringe {
			pts[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
		} else {
			pts[i] = geom.Point{
				X: ctr.X + sigma*r.NormFloat64(),
				Y: ctr.Y + sigma*r.NormFloat64(),
			}
		}
	}
	return dedupe(pts, r, sigma)
}

// hotspotParams fills the shared Hotspot/MultiHotspot defaults.
func hotspotParams(side, sigma, fringe float64) (float64, float64, float64) {
	if side <= 0 {
		side = 1000
	}
	if sigma <= 0 {
		sigma = side / 40
	}
	if fringe < 0 || fringe >= 1 {
		fringe = 0.1
	}
	return side, sigma, fringe
}

// MultiHotspot is a mixture of Hotspots Gaussian hotspots with uniformly
// scattered centers and geometrically spread widths — hotspot k has
// standard deviation Sigma·2^k — plus a uniform fringe. Unlike Cluster
// (equal-width cores, no background), the width spread populates several
// length scales at once, stressing the dyadic length-class machinery with
// unequal class sizes.
type MultiHotspot struct {
	Side     float64
	Hotspots int
	// Sigma is the width of the narrowest hotspot; hotspot k uses Sigma·2^k.
	Sigma  float64
	Fringe float64
}

// Name implements Generator.
func (m MultiHotspot) Name() string { return "hotspot-multi" }

// Generate implements Generator.
func (m MultiHotspot) Generate(n int, r *rng.RNG) []geom.Point {
	side, sigma, fringe := hotspotParams(m.Side, m.Sigma, m.Fringe)
	k := m.Hotspots
	if k <= 0 {
		k = 4
	}
	if k > n {
		k = n
	}
	centers := make([]geom.Point, k)
	widths := make([]float64, k)
	for i := range centers {
		centers[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
		widths[i] = sigma * math.Pow(2, float64(i))
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		if r.Float64() < fringe {
			pts[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
			continue
		}
		h := r.Intn(k)
		pts[i] = geom.Point{
			X: centers[h].X + widths[h]*r.NormFloat64(),
			Y: centers[h].Y + widths[h]*r.NormFloat64(),
		}
	}
	return dedupe(pts, r, sigma)
}

// dedupe guarantees pairwise-distinct points: exact coincidences (which
// would create zero-length MST links with no SINR semantics) are re-jittered
// by a tiny fraction of scale. Only X is perturbed — distinct X already
// makes the point distinct, and leaving Y untouched preserves Line's
// geom.OnLine contract. Collisions are measure-zero for the continuous
// generators, so this almost never fires, but determinism requires
// handling it deterministically rather than assuming.
func dedupe(pts []geom.Point, r *rng.RNG, scale float64) []geom.Point {
	eps := scale * 1e-9
	if eps <= 0 {
		eps = 1e-9
	}
	// Open-addressed exact-coordinate set: a generic map spends a third of
	// the generation stage on hashed Point keys at n=10⁶. Membership is the
	// map's (==), so the jitter stream — and with it every generated
	// instance — is unchanged; ±0 coordinates are normalized in the hash
	// only (x+0 maps -0 to +0), matching map equality of the two zeros.
	size := 1
	for size < 2*len(pts) {
		size <<= 1
	}
	mask := uint64(size - 1)
	keys := make([]geom.Point, size)
	full := make([]bool, size)
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	hash := func(p geom.Point) uint64 {
		h := uint64(fnvOffset)
		h = (h ^ math.Float64bits(p.X+0)) * fnvPrime
		h = (h ^ math.Float64bits(p.Y+0)) * fnvPrime
		return h
	}
	for i, p := range pts {
		for {
			h := hash(p) & mask
			for full[h] && keys[h] != p {
				h = (h + 1) & mask
			}
			if !full[h] {
				keys[h], full[h] = p, true
				break
			}
			p = geom.Point{X: p.X + (r.Float64()-0.5)*eps, Y: p.Y}
		}
		pts[i] = p
	}
	return pts
}

// Spec names a generator with concrete parameters; it is the unit the
// experiment runner and CLI traffic in.
type Spec struct {
	Preset string
	Gen    Generator
}

// Generate draws n points from a fresh generator stream seeded with seed.
func (s Spec) Generate(n int, seed uint64) []geom.Point {
	return s.Gen.Generate(n, rng.New(seed))
}

// PresetName returns the preset this spec was resolved from (or the
// generator family name for hand-built specs), satisfying the experiment
// runner's Scenario dependency.
func (s Spec) PresetName() string {
	if s.Preset != "" {
		return s.Preset
	}
	if s.Gen != nil {
		return s.Gen.Name()
	}
	return ""
}

// Presets returns the named parameter presets, keyed by preset name. Each
// maps to a fully-parameterized generator; preset names are what the CLI's
// --scenario flag accepts.
func Presets() map[string]Spec {
	m := map[string]Spec{
		"uniform":       {Gen: Uniform{Side: 1000}},
		"uniform-dense": {Gen: Uniform{Side: 100}},
		"cluster":       {Gen: Cluster{Side: 1000, Clusters: 10, Sigma: 10}},
		"cluster-many":  {Gen: Cluster{Side: 1000, Clusters: 50, Sigma: 5}},
		"line":          {Gen: Line{Length: 1000}},
		"grid":          {Gen: Grid{Spacing: 10, Jitter: 0.3}},
		"grid-exact":    {Gen: Grid{Spacing: 10, Jitter: 0.001}},
		"annulus":       {Gen: Annulus{RMin: 1, RMax: 1e4}},
		"annulus-wide":  {Gen: Annulus{RMin: 1, RMax: 1e6}},
		"hotspot":       {Gen: Hotspot{Side: 1000, Sigma: 25, Fringe: 0.1}},
		"hotspot-multi": {Gen: MultiHotspot{Side: 1000, Hotspots: 5, Sigma: 5, Fringe: 0.1}},
	}
	for name, spec := range m {
		spec.Preset = name
		m[name] = spec
	}
	return m
}

// PresetNames returns the preset names in sorted order, for usage strings.
func PresetNames() []string {
	m := Presets()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a preset name, with a helpful error listing valid names.
func Lookup(name string) (Spec, error) {
	if s, ok := Presets()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("scenario: unknown preset %q (have %v)", name, PresetNames())
}
