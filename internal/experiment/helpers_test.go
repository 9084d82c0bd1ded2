package experiment

import (
	"context"
	"fmt"

	"aggrate/internal/schedule"
)

// VerifySchedule re-verifies the instance's final schedule with the named
// engine (schedule.EngineFast or schedule.EngineNaive; empty means fast),
// returning the worst slot margin and, for the fast engine, its
// diagnostics. It is the cross-check hook of the fast≡naive parity suite.
func (in *Instance) VerifySchedule(engine string) (float64, schedule.VerifyStats, error) {
	if in.Schedule == nil || in.pf == nil {
		return 0, schedule.VerifyStats{}, fmt.Errorf("experiment: instance has no schedule to verify")
	}
	switch engine {
	case schedule.EngineNaive:
		m, err := in.Schedule.VerifySINRNaive(in.Spec.SINR, in.pf)
		return m, schedule.VerifyStats{}, err
	case schedule.EngineFast, "":
		return in.Schedule.VerifySINRDelta(context.Background(), in.Spec.SINR, in.pf, nil)
	default:
		return 0, schedule.VerifyStats{}, fmt.Errorf("experiment: unknown verify engine %q (have %v)",
			engine, schedule.Engines())
	}
}
