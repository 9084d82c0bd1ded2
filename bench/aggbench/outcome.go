package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"aggrate/internal/experiment"
)

// hexFloat is a float64 that travels through JSON as an exact hex literal,
// so goldens and replay comparisons are bit for bit.
type hexFloat float64

func (h hexFloat) MarshalJSON() ([]byte, error) {
	return json.Marshal(strconv.FormatFloat(float64(h), 'x', -1, 64))
}

func (h *hexFloat) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*h = hexFloat(v)
	return nil
}

// outcome is the checked part of one spec's result: what the schedule is,
// at which γ it certified, and with which margin.
type outcome struct {
	Label    string   `json:"label"`
	Key      string   `json:"spec_key"`
	Colors   int      `json:"colors"`
	Slots    int      `json:"schedule_length"`
	Gamma    float64  `json:"gamma_used"`
	Retries  int      `json:"gamma_retries"`
	Margin   hexFloat `json:"margin"`
	Edges    int      `json:"edges"`
	Verified bool     `json:"verified"`
	Err      string   `json:"error,omitempty"`
}

func label(s experiment.Spec) string {
	s = s.Normalized()
	l := fmt.Sprintf("%s/n=%d/seed=%d/%s/%s/%s/gamma=%g",
		s.Scenario.PresetName(), s.N, s.Seed, s.Graph, s.Power, s.Algo, s.Gamma)
	if s.Sink != 0 {
		l += fmt.Sprintf("/sink=%d", s.Sink)
	}
	return l
}

func fromResult(spec experiment.Spec, r *experiment.Result) outcome {
	o := outcome{Label: label(spec), Key: experiment.SpecKey(spec)}
	if r == nil {
		o.Err = "no result"
		return o
	}
	o.Colors, o.Slots, o.Edges = r.Colors, r.ScheduleLength, r.Edges
	o.Gamma, o.Retries = r.GammaUsed, r.GammaRetries
	o.Margin, o.Verified, o.Err = hexFloat(r.Margin), r.Verified, r.Err
	return o
}

// ok reports whether the spec certified.
func (o outcome) ok() bool { return o.Err == "" && o.Verified }

// expected is the committed golden of one workload at the default seed.
type expected struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Specs    []outcome `json:"specs"`
}

func expectedPath(dir, workload string) string { return filepath.Join(dir, workload+".json") }

// loadExpected returns the golden outcomes of a workload keyed by spec key.
func loadExpected(dir, workload string) (map[string]outcome, error) {
	b, err := os.ReadFile(expectedPath(dir, workload))
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(dir, workload), err)
	}
	m := make(map[string]outcome, len(e.Specs))
	for _, o := range e.Specs {
		m[o.Key] = o
	}
	return m, nil
}

// matchesGolden compares the golden fields: colors, schedule length, γ and
// margin. Edges and retries are checked by the replay comparison.
func matchesGolden(got, want outcome) bool {
	return got.Colors == want.Colors && got.Slots == want.Slots &&
		got.Gamma == want.Gamma && got.Margin == want.Margin
}

// checker counts the specs a run attempted and the ones that failed: errors,
// unverified schedules, golden mismatches and replay mismatches.
type checker struct {
	golden            map[string]outcome // nil: goldens skipped
	attempted, failed int
	unchecked         int // specs at the default seed without a golden entry
}

func (c *checker) check(o outcome) {
	c.attempted++
	switch {
	case !o.ok():
		c.failed++
		fmt.Fprintf(os.Stderr, "aggbench: %s failed: %s (verified=%t)\n", o.Label, o.Err, o.Verified)
	case c.golden != nil:
		want, ok := c.golden[o.Key]
		if !ok {
			c.unchecked++
		} else if !matchesGolden(o, want) {
			c.failed++
			fmt.Fprintf(os.Stderr, "aggbench: %s differs from its golden: got colors=%d slots=%d gamma=%g margin=%x, want colors=%d slots=%d gamma=%g margin=%x\n",
				o.Label, o.Colors, o.Slots, o.Gamma, float64(o.Margin), want.Colors, want.Slots, want.Gamma, float64(want.Margin))
		}
	}
}

// same compares two outcomes of one spec bit for bit and counts a mismatch
// as a failure of an already attempted spec.
func (c *checker) same(what string, got, want outcome) {
	if got != want {
		c.failed++
		fmt.Fprintf(os.Stderr, "aggbench: %s: %s differs:\n  got  %+v\n  want %+v\n", what, want.Label, got, want)
	}
}
