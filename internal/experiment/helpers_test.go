package experiment

import (
	"context"
	"fmt"

	"aggrate/internal/schedule"
)

// engineNaive names the exact O(m²)-per-slot oracle of the parity tests.
// It is not a spec option: Validate rejects it as a VerifyEngine.
const engineNaive = "naive"

// VerifySchedule re-verifies the instance's final schedule with the named
// engine (schedule.EngineFast or engineNaive; empty means fast), returning
// the worst slot margin and, for the fast engine, its diagnostics. It is
// the cross-check hook of the fast≡naive parity suite.
func (in *Instance) VerifySchedule(engine string) (float64, schedule.VerifyStats, error) {
	if in.Schedule == nil || in.pf == nil {
		return 0, schedule.VerifyStats{}, fmt.Errorf("experiment: instance has no schedule to verify")
	}
	switch engine {
	case engineNaive:
		m, err := in.Schedule.VerifySINRNaive(in.Spec.SINR, in.pf)
		return m, schedule.VerifyStats{}, err
	case schedule.EngineFast, "":
		return in.Schedule.VerifySINRDelta(context.Background(), in.Spec.SINR, in.pf, nil)
	default:
		return 0, schedule.VerifyStats{}, fmt.Errorf("experiment: unknown verify engine %q", engine)
	}
}
