// Package geom provides the planar geometry substrate for the aggregation
// scheduler: points, directed communication links, the distance functions
// used by the SINR model and the conflict-graph framework, and the length
// diversity Δ of pointsets and link sets.
//
// Conventions follow Sec. 2 of Halldórsson & Tonoyan, "Wireless Aggregation
// at Nearly Constant Rate" (ICDCS 2018):
//
//   - d_ij = d(s_i, r_j) is the sender-to-receiver distance used in SINR
//     interference terms,
//   - l_i = d(s_i, r_i) is the length of link i,
//   - d(i, j) is the minimum distance between the endpoints of links i and j,
//   - Δ(L) is the ratio of the longest to the shortest link length in L, and
//   - Δ(R) for a pointset R is the ratio between the furthest and the
//     closest pair distances.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in inner loops.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns the translate p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Link is a directed communication request from a sender node to a
// receiver node. Links are the vertices of every conflict graph and the
// unit of scheduling: one link transmits one packet per time slot.
type Link struct {
	// Sender and Receiver are indices into the owning instance's pointset.
	Sender, Receiver int
	// S and R are the sender and receiver coordinates.
	S, R Point
}

// NewLink constructs a link between two indexed points.
func NewLink(sender, receiver int, s, r Point) Link {
	return Link{Sender: sender, Receiver: receiver, S: s, R: r}
}

// Length returns l_i, the sender-receiver distance of the link.
func (l Link) Length() float64 { return l.S.Dist(l.R) }

// String implements fmt.Stringer.
func (l Link) String() string {
	return fmt.Sprintf("link %d->%d len=%g", l.Sender, l.Receiver, l.Length())
}

// SenderToReceiver returns d_ij = d(s_i, r_j), the distance from the sender
// of link i to the receiver of link j. This is the distance that governs the
// interference link i imposes on link j in the physical model.
func SenderToReceiver(i, j Link) float64 { return i.S.Dist(j.R) }

// LinkDist returns d(i, j), the minimum distance between the endpoints
// (nodes) of the two links, per the paper's Sec. 2 definition. It is
// symmetric: LinkDist(i, j) == LinkDist(j, i).
func LinkDist(i, j Link) float64 {
	return math.Sqrt(LinkDist2(i, j))
}

// LinkDist2 returns the square of LinkDist. Inner loops that only compare
// distances against thresholds should square the threshold and use this.
func LinkDist2(i, j Link) float64 {
	d := i.S.Dist2(j.S)
	if v := i.S.Dist2(j.R); v < d {
		d = v
	}
	if v := i.R.Dist2(j.S); v < d {
		d = v
	}
	if v := i.R.Dist2(j.R); v < d {
		d = v
	}
	return d
}

// MinMaxLen returns (l_min, l_max) of the pair of links.
func MinMaxLen(i, j Link) (lmin, lmax float64) {
	li, lj := i.Length(), j.Length()
	if li < lj {
		return li, lj
	}
	return lj, li
}

// Lengths returns the slice of link lengths of L, in order.
func Lengths(links []Link) []float64 {
	out := make([]float64, len(links))
	for i, l := range links {
		out[i] = l.Length()
	}
	return out
}

// minMaxLinkLength scans the link lengths once, rejecting non-positive
// values (a zero-length link has no meaningful SINR semantics). It is the
// shared kernel of the diversity functions; callers handle the empty set.
func minMaxLinkLength(links []Link) (lo, hi float64, err error) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, l := range links {
		le := l.Length()
		if le <= 0 {
			return 0, 0, fmt.Errorf("geom: link %d->%d has non-positive length %g", l.Sender, l.Receiver, le)
		}
		if le < lo {
			lo = le
		}
		if le > hi {
			hi = le
		}
	}
	return lo, hi, nil
}

// LinkDiversity returns Δ(L), the ratio between the longest and the
// shortest link length in L. It returns 1 for empty or single-link sets and
// an error if any link has non-positive length. Note the ratio can overflow
// to +Inf for extreme length ranges; LinkLog2Diversity stays finite there.
func LinkDiversity(links []Link) (float64, error) {
	if len(links) == 0 {
		return 1, nil
	}
	lo, hi, err := minMaxLinkLength(links)
	if err != nil {
		return 0, err
	}
	return hi / lo, nil
}

// LinkLog2Diversity returns log₂ Δ(L) computed in log space
// (log₂ l_max − log₂ l_min), so it stays finite even when the ratio Δ(L)
// itself overflows float64 (e.g. subnormal shortest link, huge longest).
// Like LinkDiversity it returns 0 (= log₂ 1) for empty or single-link sets
// and an error on non-positive lengths.
func LinkLog2Diversity(links []Link) (float64, error) {
	if len(links) == 0 {
		return 0, nil
	}
	lo, hi, err := minMaxLinkLength(links)
	if err != nil {
		return 0, err
	}
	return math.Log2(hi) - math.Log2(lo), nil
}

// PointDiversity returns Δ(R) for the pointset: the ratio between the
// maximum and the minimum pairwise distance. It is quadratic in |R| and
// returns an error when two points coincide (Δ would be infinite) or when
// fewer than two points are given.
func PointDiversity(pts []Point) (float64, error) {
	if len(pts) < 2 {
		return 0, fmt.Errorf("geom: need at least 2 points, got %d", len(pts))
	}
	lo := math.Inf(1)
	hi := 0.0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist2(pts[j])
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
	}
	if lo == 0 {
		return 0, fmt.Errorf("geom: duplicate points (zero minimum distance)")
	}
	return math.Sqrt(hi / lo), nil
}

// BoundingBox returns the axis-aligned bounding box (min corner, max
// corner) of the pointset. For an empty set it returns two zero points.
func BoundingBox(pts []Point) (lo, hi Point) {
	if len(pts) == 0 {
		return Point{}, Point{}
	}
	lo, hi = pts[0], pts[0]
	for _, p := range pts[1:] {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	return lo, hi
}

// OnLine reports whether all points are collinear with the x-axis
// (Y == 0), which is how line instances are embedded in the plane.
func OnLine(pts []Point) bool {
	for _, p := range pts {
		if p.Y != 0 {
			return false
		}
	}
	return true
}
