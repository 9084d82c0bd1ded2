package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke builds aggbench and aggrate, runs every workload of
// BENCHMARK.json at toy size untraced and traced (serve-mix for 3 s against
// a real server), and checks that each run is correct and emits every
// metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts servers")
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	checkDefs(t, "end_to_end", bm.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", bm.PerLayer, perLayer)
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, aggbench has %d", len(bm.Workloads), len(workloads))
	}

	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), ".", "aggrate/cmd/aggrate")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range bm.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
			continue
		}
		seconds := "1"
		if w.Name == "serve-mix" {
			seconds = "3"
		}
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(filepath.Join(dir, "aggbench"), "--toy", "--workload", w.Name,
				"--seconds", seconds, "--trace", trace, "--aggrate", filepath.Join(dir, "aggrate"), "--out", dir)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Errorf("%s --trace %s: %v\n%s", w.Name, trace, err, stderr.Bytes())
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Errorf("%s --trace %s: last line: %v", w.Name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%t attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, stderr.Bytes())
			}
			defs := bm.EndToEnd
			if trace == "1" {
				defs = bm.PerLayer
				checkSpans(t, filepath.Join(dir, w.Name+".spans.json"))
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s --trace %s: metric %s = %+v, want unit %q", w.Name, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkDefs compares BENCHMARK.json's metric list with the one aggbench
// emits.
func checkDefs(t *testing.T, what string, got []benchmarkMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, aggbench %d", what, len(got), len(want))
		return
	}
	for i, d := range want {
		if got[i].Name != d.name || got[i].Unit != d.unit {
			t.Errorf("%s[%d]: BENCHMARK.json %s (%s), aggbench %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
		}
		if !metricName.MatchString(d.name) || d.unit == "" {
			t.Errorf("%s: bad metric name %q or empty unit", what, d.name)
		}
	}
}

// checkSpans checks that a spans file holds a well-formed span forest.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var f struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	byID := make(map[int]span, len(f.Spans))
	for _, s := range f.Spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range f.Spans {
		if s.Name == "" || s.Trace < 1 || s.EndNs < s.StartNs {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Trace != s.Trace || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("%s: span %+v does not nest in its parent %+v", path, s, p)
		}
	}
	if roots == 0 {
		t.Errorf("%s: no spec spans", path)
	}
}
