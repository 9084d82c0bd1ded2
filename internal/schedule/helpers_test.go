package schedule

import "fmt"

// Concat returns the schedule that plays a's period then b's period (over
// the same link set). Useful for composing per-length-class schedules.
func Concat(a, b *Schedule) (*Schedule, error) {
	if len(a.Links) != len(b.Links) {
		return nil, fmt.Errorf("schedule: cannot concat over different link sets (%d vs %d links)",
			len(a.Links), len(b.Links))
	}
	out := New(a.Links, a.Slots)
	for _, slot := range b.Slots {
		out.Slots = append(out.Slots, append([]int(nil), slot...))
	}
	return out, nil
}
