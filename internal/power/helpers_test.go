package power

import (
	"fmt"
	"math"

	"aggrate/internal/geom"
	"aggrate/internal/sinr"
)

// Validate checks that a concrete power assignment is interference-limited:
// P(i) ≥ (1+ε)·β·N·l_i^α for every link (trivially true when Noise == 0,
// where only positivity is required).
func Validate(links []geom.Link, powers []float64, p sinr.Params) error {
	if len(links) != len(powers) {
		return fmt.Errorf("power: %d links but %d powers", len(links), len(powers))
	}
	for i, l := range links {
		if powers[i] <= 0 {
			return fmt.Errorf("power: non-positive power %g on link %d", powers[i], i)
		}
		floor := (1 + p.Epsilon) * p.Beta * p.Noise * math.Pow(l.Length(), p.Alpha)
		if powers[i] < floor*(1-1e-9) {
			return fmt.Errorf("power: link %d power %g below interference-limited floor %g",
				i, powers[i], floor)
		}
	}
	return nil
}
