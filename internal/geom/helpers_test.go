package geom

import "math"

// ClosestPair returns the indices (i, j), i<j, of the closest pair of
// points and their distance, by exhaustive search. It panics if fewer than
// two points are supplied; callers generate the pointsets and control this.
func ClosestPair(pts []Point) (int, int, float64) {
	if len(pts) < 2 {
		panic("geom: ClosestPair needs at least 2 points")
	}
	bi, bj := 0, 1
	best := pts[0].Dist2(pts[1])
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist2(pts[j]); d < best {
				best, bi, bj = d, i, j
			}
		}
	}
	return bi, bj, math.Sqrt(best)
}

// Diameter returns the maximum pairwise distance of the pointset, 0 for
// fewer than two points.
func Diameter(pts []Point) float64 {
	hi := 0.0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist2(pts[j]); d > hi {
				hi = d
			}
		}
	}
	return math.Sqrt(hi)
}

// Translate returns a copy of pts with every point shifted by off.
func Translate(pts []Point, off Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = p.Add(off)
	}
	return out
}

// ScalePoints returns a copy of pts with every point scaled by s about the
// origin.
func ScalePoints(pts []Point, s float64) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{p.X * s, p.Y * s}
	}
	return out
}
