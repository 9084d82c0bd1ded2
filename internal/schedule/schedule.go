// Package schedule turns colorings into TDMA aggregation schedules and
// defines the rate semantics of Sec. 2.
//
// A Schedule is a periodic sequence of slots; slot k lists the links that
// transmit in time slots k, k+Period, k+2·Period, …. A coloring schedule has
// every link in exactly one slot, so its rate is 1/Period. Multicoloring
// schedules (Sec. 4's 5-cycle example) may place a link in several slots,
// achieving rate (occurrences)/Period, which can beat any proper coloring.
package schedule

import (
	"fmt"
	"math"

	"aggrate/internal/geom"
	"aggrate/internal/sinr"
)

// Schedule is a periodic TDMA schedule over an indexed link set.
type Schedule struct {
	// Links is the scheduled link set: the caller's slice, stored without a
	// copy. It is immutable: neither the package nor its callers write to
	// it once the schedule exists.
	Links []geom.Link
	// Slots[k] lists link indices transmitting in slot k of each period.
	Slots [][]int
}

// FromColoring builds a coloring schedule over links (stored, not copied):
// slot c carries exactly the links colored c. It returns an error if any
// link is uncolored or a color is out of the dense palette [0, numColors).
func FromColoring(links []geom.Link, colors []int) (*Schedule, error) {
	if len(colors) != len(links) {
		return nil, fmt.Errorf("schedule: %d colors for %d links", len(colors), len(links))
	}
	numColors := 0
	for i, c := range colors {
		if c < 0 {
			return nil, fmt.Errorf("schedule: link %d uncolored", i)
		}
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	s := &Schedule{
		Links: links,
		Slots: make([][]int, numColors),
	}
	// Counting sort into one flat backing array: two sequential passes over
	// colors instead of per-slot append growth, and slot k keeps the same
	// index-ascending order appends would have produced.
	off := make([]int32, numColors+1)
	for _, c := range colors {
		off[c+1]++
	}
	for c := 0; c < numColors; c++ {
		off[c+1] += off[c]
	}
	flat := make([]int, len(colors))
	fill := append([]int32(nil), off[:numColors]...)
	for i, c := range colors {
		flat[fill[c]] = i
		fill[c]++
	}
	for c := 0; c < numColors; c++ {
		lo, hi := off[c], off[c+1]
		if lo < hi { // an unused color keeps its nil slot, as appends would
			s.Slots[c] = flat[lo:hi:hi]
		}
	}
	return s, nil
}

// New builds a schedule directly from slot contents, storing links and
// copying the slots.
func New(links []geom.Link, slots [][]int) *Schedule {
	s := &Schedule{
		Links: links,
		Slots: make([][]int, len(slots)),
	}
	for k, slot := range slots {
		s.Slots[k] = append([]int(nil), slot...)
	}
	return s
}

// Period returns the schedule length (number of slots per period).
func (s *Schedule) Period() int { return len(s.Slots) }

// Occurrences returns how many slots of the period each link appears in,
// in one pass over the slots.
func (s *Schedule) Occurrences() []int {
	occ := make([]int, len(s.Links))
	for _, slot := range s.Slots {
		for _, i := range slot {
			occ[i]++
		}
	}
	return occ
}

// Rate returns the aggregation rate of the schedule: the minimum over links
// of occurrences/Period (Sec. 2). An empty or zero-period schedule has rate
// 0; a schedule missing some link has rate 0. The counts come from a single
// Occurrences pass over the slots.
func (s *Schedule) Rate() float64 {
	if s.Period() == 0 || len(s.Links) == 0 {
		return 0
	}
	occ := s.Occurrences()
	minOcc := occ[0]
	for _, o := range occ[1:] {
		if o < minOcc {
			minOcc = o
		}
	}
	return float64(minOcc) / float64(s.Period())
}

// Validate checks structural sanity: every slot references valid link
// indices with no duplicates inside a slot, and every link appears at least
// once per period. One []bool seen-buffer is reused across slots (reset by
// walking the slot again) instead of allocating a map per slot.
func (s *Schedule) Validate() error {
	occ := make([]int, len(s.Links))
	seen := make([]bool, len(s.Links))
	for k, slot := range s.Slots {
		for _, i := range slot {
			if i < 0 || i >= len(s.Links) {
				return fmt.Errorf("schedule: slot %d references link %d out of range", k, i)
			}
			if seen[i] {
				return fmt.Errorf("schedule: slot %d lists link %d twice", k, i)
			}
			seen[i] = true
			occ[i]++
		}
		for _, i := range slot {
			seen[i] = false
		}
	}
	for i, o := range occ {
		if o == 0 {
			return fmt.Errorf("schedule: link %d never scheduled", i)
		}
	}
	return nil
}

// PowerFunc supplies, for a slot index and the link indices transmitting in
// it, the transmit power of each listed link (same order). Global power
// control solves per slot; oblivious schemes return a fixed per-link value.
type PowerFunc func(slot int, linkIdx []int) ([]float64, error)

// FixedPower adapts a single per-link power vector (an oblivious
// assignment) to a PowerFunc.
func FixedPower(perLink []float64) PowerFunc {
	return func(_ int, linkIdx []int) ([]float64, error) {
		out := make([]float64, len(linkIdx))
		for k, i := range linkIdx {
			if i < 0 || i >= len(perLink) {
				return nil, fmt.Errorf("schedule: link index %d outside power vector", i)
			}
			out[k] = perLink[i]
		}
		return out, nil
	}
}

// VerifySINRNaive checks every slot by the exact O(m²) pairwise evaluation
// (sinr.Params.Margin), sequentially. It is retained as the oracle for the
// fast engine behind VerifySINRDelta (see verify.go): both return the same
// margins (up to floating-point accumulation order) and identical error
// conditions and messages.
func (s *Schedule) VerifySINRNaive(p sinr.Params, pf PowerFunc) (float64, error) {
	worst := math.Inf(1)
	for k, slot := range s.Slots {
		if len(slot) == 0 {
			continue
		}
		links := make([]geom.Link, len(slot))
		for t, i := range slot {
			links[t] = s.Links[i]
		}
		powers, err := pf(k, slot)
		if err != nil {
			return 0, fmt.Errorf("schedule: slot %d power assignment: %w", k, err)
		}
		m, err := p.Margin(links, powers)
		if err != nil {
			return 0, fmt.Errorf("schedule: slot %d: %w", k, err)
		}
		if m < worst {
			worst = m
		}
		if m < 1 {
			return worst, fmt.Errorf("schedule: slot %d infeasible (margin %.4g < 1)", k, m)
		}
	}
	return worst, nil
}
