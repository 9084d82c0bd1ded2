// γ-lookahead conflict builds: every threshold family of the paper factors
// as f_γ(x) = γ·h(x) (Gamma: h ≡ 1; PowerLaw: h = x^δ; LogThreshold:
// h = max{1, log₂^{2/(α-2)} x}; the protocol model: h = x), so the conflict
// predicate d(i,j)² ≤ (l_min·f_γ(l_max/l_min))² is monotone in γ and every
// pair has a well-defined conflict *strength* — the smallest γ at which it
// conflicts. One strength-annotated build at an escalated γ therefore serves
// every smaller γ of an escalation ladder as a linear filter scan over the
// CSR arrays, instead of a full grid rebuild per attempt.
//
// Exactness is preserved bit-for-bit: strengthOf computes the smallest
// float64 γ at which the build's own floating-point predicate flips to
// true (the predicate is weakly monotone in γ because every operation in
// l_min·(γ·h(x)) and its square is), so filtering by Strengths[k] ≤ γ
// reproduces the direct build's pair test exactly — not approximately —
// at every γ up to the build γ. The parity suite and the fuzz targets pin
// this against the exact pairwise oracle kept in the package tests.
package conflict

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"aggrate/internal/geom"
	"aggrate/internal/par"
)

// Family is a γ-indexed conflict-threshold family f_γ(x) = γ·h(x).
//
// Contract (what makes lookahead filtering bit-exact): At(γ) must return a
// Func whose Eval(x) computes the floating-point expression γ*H(x) — one
// multiplication of γ against the exact value H returns, rounding included —
// and whose Const, when set, equals γ (only legal when H ≡ 1). H must be
// positive and non-decreasing on [1, ∞), like Func.Eval. The constructors
// below pair each Func constructor with its factored form and keep the two
// in lockstep.
type Family struct {
	Name string
	// H is the γ-free factor h(x).
	H func(x float64) float64
	// At materializes f_γ.
	At func(gamma float64) Func
}

// GammaFamily is the factored form of Gamma: f_γ ≡ γ, h ≡ 1.
func GammaFamily() Family {
	return Family{
		Name: "G_gamma",
		H:    func(float64) float64 { return 1 },
		At:   Gamma,
	}
}

// PowerLawFamily is the factored form of PowerLaw: f_γ(x) = γ·x^δ. H shares
// PowerLaw's δ = ½ Sqrt fast path (see powFunc), keeping the two bit-equal.
func PowerLawFamily(delta float64) Family {
	return Family{
		Name: fmt.Sprintf("G_obl(%g)", delta),
		H:    powFunc(delta),
		At:   func(gamma float64) Func { return PowerLaw(gamma, delta) },
	}
}

// LogThresholdFamily is the factored form of LogThreshold:
// f_γ(x) = γ·max{1, log₂^{2/(α-2)} x}.
func LogThresholdFamily(alpha float64) Family {
	exp := 2 / (alpha - 2)
	return Family{
		Name: fmt.Sprintf("G_arb(alpha=%g)", alpha),
		H: func(x float64) float64 {
			if x <= 2 {
				return 1
			}
			return math.Max(1, math.Pow(math.Log2(x), exp))
		},
		At: func(gamma float64) Func { return LogThreshold(gamma, alpha) },
	}
}

// strengthOf returns the conflict strength of a pair: the smallest float64
// q for which the build predicate d² ≤ (l_min·(q·h))² holds. Filtering an
// annotated graph by strength ≤ γ is then exactly the direct build's pair
// test at γ: the predicate is weakly monotone in q (each floating-point
// operation is weakly monotone, and squaring a non-negative threshold
// preserves that), so it is false strictly below the returned value and
// true from it upward.
//
// The algebraic estimate √d²/(l_min·h) lands within a few ulps of the
// boundary, so when it is usable the boundary is reached by a straight-line
// walk over adjacent floats — 1–4 predicate tests, no bisection over the
// full bit range. If the walk does not terminate within strengthWalkMax
// steps (a degenerate estimate), or the estimate falls outside (0,
// buildGamma), the boundary is located by binary search on the float64 bit
// pattern (ordered like the values for non-negative floats) over [0,
// buildGamma]. buildGamma must satisfy the predicate (the pair was accepted
// at the build γ). Either search returns the same unique boundary float.
const strengthWalkMax = 8

func strengthOf(d2, lmin, h, buildGamma float64) float64 {
	pred := func(q float64) bool {
		t := lmin * (q * h)
		return d2 <= t*t
	}
	if pred(0) {
		return 0
	}
	lo, hi := 0.0, buildGamma
	if q := math.Sqrt(d2) / (lmin * h); q > lo && q < hi {
		b := math.Float64bits(q)
		if pred(q) {
			hi = q
			for step := 0; step < strengthWalkMax; step++ {
				if !pred(math.Float64frombits(b - 1)) {
					return math.Float64frombits(b)
				}
				b--
			}
			hi = math.Float64frombits(b)
		} else {
			lo = q
			for step := 0; step < strengthWalkMax; step++ {
				b++
				if pred(math.Float64frombits(b)) {
					return math.Float64frombits(b)
				}
			}
			lo = math.Float64frombits(b)
		}
	}
	lb, hb := math.Float64bits(lo), math.Float64bits(hi)
	for lb+1 < hb {
		mid := lb + (hb-lb)/2
		if pred(math.Float64frombits(mid)) {
			hb = mid
		} else {
			lb = mid
		}
	}
	return math.Float64frombits(hb)
}

// FilterCtx materializes the conflict graph at a smaller γ from a
// strength-annotated graph: one linear scan over the CSR arrays keeping the
// directed entries with strength ≤ gamma. Row order is preserved (a
// subsequence of sorted rows stays sorted), so the result is bit-identical —
// edges, CSR row order, Strengths annotation — to BuildLookaheadCtx at
// gamma. f should be the family's Func at gamma; it becomes the result's F.
//
// Cancellation: ctx is checked at row-block boundaries during both the
// counting and the scatter pass; on cancellation FilterCtx returns
// (nil, ctx.Err()) and never a partially-filtered graph.
func (g *Graph) FilterCtx(ctx context.Context, f Func, gamma float64) (*Graph, error) {
	if g.Strengths == nil {
		return nil, fmt.Errorf("conflict: FilterCtx on a graph without strengths (not a lookahead build)")
	}
	n := g.N()
	out := &Graph{
		Links:  g.Links, // shared: both graphs treat Links as immutable
		F:      f,
		RowPtr: make([]int32, n+1),
		Stats:  g.Stats, // the annotated build's pruning counters carry over
	}
	// Counting pass: per-row surviving-entry counts, written into
	// RowPtr[i+1] so the prefix sum below finalizes the offsets.
	err := par.ForBlocksCtx(ctx, n, 1024, func(next func() (int, int, bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				cnt := int32(0)
				for _, q := range g.Strengths[g.RowPtr[i]:g.RowPtr[i+1]] {
					if q <= gamma {
						cnt++
					}
				}
				out.RowPtr[i+1] = cnt
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	out.Neighbors = make([]int32, out.RowPtr[n])
	out.Strengths = make([]float64, out.RowPtr[n])
	err = par.ForBlocksCtx(ctx, n, 1024, func(next func() (int, int, bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				w := out.RowPtr[i]
				s, e := g.RowPtr[i], g.RowPtr[i+1]
				for k := s; k < e; k++ {
					if q := g.Strengths[k]; q <= gamma {
						out.Neighbors[w] = g.Neighbors[k]
						out.Strengths[w] = q
						w++
					}
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Lookahead amortizes conflict-graph construction across a γ-escalation
// ladder: the first request for a link set pays one strength-annotated build
// at the lookahead γ (GammaMax), and every request at a γ at or below it —
// including later escalation attempts on the same links — is served by a
// linear filter scan (or, at GammaMax itself, by the annotated build
// directly). Builds are cached per link-set content, so the lengthclass
// strategy's per-class graphs each get their own annotated build and reuse
// it across attempts even though the class slices are reallocated per call.
//
// A Lookahead is safe for concurrent use; builds and filters run under an
// internal lock, so concurrent callers serialize (the intended use is one
// Lookahead per pipeline instance, which is single-threaded).
type Lookahead struct {
	gammaMax float64
	mu       sync.Mutex
	entries  map[lookaheadKey]*Graph
}

type lookaheadKey struct {
	family string
	links  uint64 // content hash; collisions are re-verified element-wise
}

// NewLookahead returns a Lookahead whose builds cover every γ ≤ gammaMax.
func NewLookahead(gammaMax float64) *Lookahead {
	return &Lookahead{gammaMax: gammaMax, entries: make(map[lookaheadKey]*Graph)}
}

// GammaMax returns the γ ceiling the cached builds cover. Requests above it
// get an uncached build at their own γ (the escalation loop re-arms a fresh
// Lookahead instead of ever hitting that path).
func (la *Lookahead) GammaMax() float64 { return la.gammaMax }

// LookaheadStats reports how one GraphFor call split its work, for the
// build_sec/build_filter_sec/build_reused diagnostics.
type LookaheadStats struct {
	// BuildSec is the wall-clock of a full annotated build; zero when the
	// call was served from the cache.
	BuildSec float64
	// FilterSec is everything else: link-set hashing, cache lookup, and the
	// filter scan.
	FilterSec float64
	// Reused reports that the conflict graph came from a filter scan over a
	// previously built strength-annotated graph.
	Reused bool
}

// GraphFor returns the conflict graph of links under fam.At(gamma),
// bit-identical to BuildLookaheadCtx(ctx, links, fam, gamma). The first
// call per link set builds once at GammaMax with strengths; subsequent
// calls (any γ ≤ GammaMax) filter.
func (la *Lookahead) GraphFor(ctx context.Context, links []geom.Link, fam Family, gamma float64) (*Graph, LookaheadStats, error) {
	var st LookaheadStats
	t0 := time.Now()
	if gamma > la.gammaMax {
		// Out of coverage: a direct build is always correct.
		g, err := BuildLookaheadCtx(ctx, links, fam, gamma)
		st.BuildSec = time.Since(t0).Seconds()
		return g, st, err
	}
	la.mu.Lock()
	defer la.mu.Unlock()
	key := lookaheadKey{family: fam.Name, links: linksHash(links)}
	full := la.entries[key]
	if full != nil && !linksEqual(full.Links, links) {
		full = nil // hash collision: rebuild rather than serve the wrong graph
	}
	if full == nil {
		tb := time.Now()
		var err error
		full, err = BuildLookaheadCtx(ctx, links, fam, la.gammaMax)
		st.BuildSec = time.Since(tb).Seconds()
		if err != nil {
			return nil, st, err
		}
		la.entries[key] = full
	} else {
		st.Reused = true
	}
	var g *Graph
	if gamma == la.gammaMax {
		g = full // the annotated build is the direct build at the top rung
	} else {
		var err error
		g, err = full.FilterCtx(ctx, fam.At(gamma), gamma)
		if err != nil {
			st.FilterSec = time.Since(t0).Seconds() - st.BuildSec
			return nil, st, err
		}
	}
	st.FilterSec = time.Since(t0).Seconds() - st.BuildSec
	return g, st, nil
}

// linksHash is an FNV-1a content hash of a link set (coordinates only —
// lengths and distances, hence conflict structure, are functions of the
// endpoints). Used as the Lookahead cache key, with an element-wise
// re-verification on every hit so a collision can never alias two link sets.
func linksHash(links []geom.Link) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(len(links)))
	for _, l := range links {
		mix(math.Float64bits(l.S.X))
		mix(math.Float64bits(l.S.Y))
		mix(math.Float64bits(l.R.X))
		mix(math.Float64bits(l.R.Y))
	}
	return h
}

// linksEqual reports element-wise equality of two link sets.
func linksEqual(a, b []geom.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
