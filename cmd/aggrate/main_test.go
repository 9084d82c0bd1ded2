package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"aggrate/internal/scheduler"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// runCLI invokes runMain with captured streams.
func runCLI(args ...string) (stdout, stderr string, code int) {
	var out, errw bytes.Buffer
	code = runMain(args, &out, &errw)
	return out.String(), errw.String(), code
}

// timingKeys are the JSON fields whose values depend on wall clock, zeroed
// before golden comparison. Everything else in the output is a deterministic
// function of the seed.
var timingKeys = map[string]bool{
	"generate_sec": true, "mst_sec": true, "build_sec": true,
	"build_filter_sec": true, "order_sec": true, "color_sec": true,
	"refine_sec": true, "verify_sec": true, "power_solve_sec": true,
	"total_sec": true, "mean_total_sec": true,
}

// interleavingKeys are dropped rather than zeroed: which spec of a
// same-deployment group pays the build (and which reuse it) depends on
// worker interleaving, and the omitempty flag is present only on the specs
// that reused, so even its presence is scheduling-dependent.
var interleavingKeys = map[string]bool{"deploy_reused": true}

// normalizeJSON parses arbitrary JSON and zeroes every timing-dependent
// field, then re-encodes with stable indentation.
func normalizeJSON(t *testing.T, data string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(data), &v); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, data)
	}
	v = scrub(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

func scrub(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			if interleavingKeys[k] {
				delete(x, k)
			} else if timingKeys[k] {
				x[k] = 0
			} else {
				x[k] = scrub(val)
			}
		}
		return x
	case []any:
		for i, val := range x {
			x[i] = scrub(val)
		}
		return x
	default:
		return v
	}
}

// normalizeCSV zeroes the wall-clock stage columns.
func normalizeCSV(t *testing.T, data string) string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, data)
	}
	if len(rows) == 0 {
		t.Fatal("empty CSV output")
	}
	timingCols := map[string]bool{
		"build_sec": true, "build_filter_sec": true, "order_sec": true,
		"color_sec": true, "verify_sec": true, "total_sec": true,
	}
	var cols []int
	for i, name := range rows[0] {
		if timingCols[name] {
			cols = append(cols, i)
		}
	}
	if len(cols) != len(timingCols) {
		t.Fatalf("CSV header is missing timing columns (found %d of %d): %v",
			len(cols), len(timingCols), rows[0])
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for r, row := range rows {
		if r > 0 {
			for _, c := range cols {
				row[c] = "0"
			}
		}
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	return buf.String()
}

var tableTime = regexp.MustCompile(`\d+\.\d+s`)

// normalizeTable blanks wall-clock durations in the human-readable compare
// table.
func normalizeTable(data string) string {
	return tableTime.ReplaceAllString(data, "X.XXXs")
}

// checkGolden compares got against testdata/<name> (rewriting it under
// -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run 'go test ./cmd/... -update'): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestRunJSONGolden pins the full JSON output shape of `run` — results and
// summaries across two algorithms on a tiny fixed-seed batch.
func TestRunJSONGolden(t *testing.T) {
	stdout, _, code := runCLI("run", "--scenario", "uniform", "--n", "60",
		"--seeds", "2", "--seed", "7", "--algo", "greedy,lengthclass")
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	checkGolden(t, "run_json.golden", normalizeJSON(t, stdout))
}

// TestRunCSVGolden pins the CSV schema and row content.
func TestRunCSVGolden(t *testing.T) {
	stdout, _, code := runCLI("run", "--scenario", "uniform", "--n", "60",
		"--seeds", "2", "--seed", "7", "--algo", "greedy,naive", "--format", "csv")
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	checkGolden(t, "run_csv.golden", normalizeCSV(t, stdout))
}

// TestRunSummaryOnlyGolden pins the summaries-only JSON form.
func TestRunSummaryOnlyGolden(t *testing.T) {
	stdout, _, code := runCLI("run", "--scenario", "line", "--n", "40",
		"--seeds", "2", "--seed", "3", "--summary-only")
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	checkGolden(t, "run_summary.golden", normalizeJSON(t, stdout))
}

// TestCompareTableGolden pins the human-readable compare table across all
// registered strategies.
func TestCompareTableGolden(t *testing.T) {
	stdout, _, code := runCLI("compare", "--scenario", "uniform", "--n", "80",
		"--seeds", "2", "--seed", "9")
	if code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	checkGolden(t, "compare_table.golden", normalizeTable(stdout))
}

// TestCompareJSONOut: --out - routes the JSON payload to stdout after the
// table; both must stay parseable.
func TestCompareJSONOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "compare.json")
	_, _, code := runCLI("compare", "--scenario", "uniform", "--n", "60",
		"--seeds", "1", "--out", path)
	if code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Summaries []json.RawMessage `json:"summaries"`
		Results   []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("compare --out payload not JSON: %v", err)
	}
	if want := len(scheduler.Names()); len(payload.Summaries) != want || len(payload.Results) != want {
		t.Fatalf("compare payload has %d summaries / %d results, want %d/%d",
			len(payload.Summaries), len(payload.Results), want, want)
	}
}

// TestFlagValidation: bad flag combinations and unknown enum values must
// fail fast with exit code 1 and a pointed message, before any instance
// runs.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"summary-only csv", []string{"run", "--summary-only", "--format", "csv"}, "--summary-only requires --format json"},
		{"bad format", []string{"run", "--format", "yaml"}, `unknown --format "yaml"`},
		{"bad graph", []string{"run", "--graph", "bogus"}, `unknown --graph "bogus"`},
		{"bad power", []string{"run", "--power", "bogus"}, `unknown --power "bogus"`},
		{"bad algo", []string{"run", "--algo", "bogus"}, `unknown --algo "bogus"`},
		{"empty algo", []string{"run", "--algo", ","}, "--algo is empty"},
		{"bad scenario", []string{"run", "--scenario", "bogus"}, "bogus"},
		{"bad n", []string{"run", "--n", "abc"}, "bad --n"},
		{"compare bad algo", []string{"compare", "--algo", "bogus"}, `unknown --algo "bogus"`},
		{"compare bad graph", []string{"compare", "--graph", "bogus"}, `unknown --graph "bogus"`},
		{"compare bad power", []string{"compare", "--power", "bogus"}, `unknown --power "bogus"`},
		{"gamma NaN", []string{"run", "--n", "60", "--gamma", "NaN"}, "gamma is NaN"},
		{"gamma Inf", []string{"run", "--n", "60", "--gamma", "Inf"}, "gamma is +Inf"},
		{"delta NaN", []string{"run", "--n", "60", "--delta", "NaN"}, "delta is NaN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(tc.args...)
			if code != 1 {
				t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.wantErr)
			}
		})
	}
}

// TestProfilingFlags: --cpuprofile/--memprofile write non-empty pprof files,
// and --trace writes a non-empty execution trace but refuses to run
// alongside --cpuprofile.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if _, stderr, code := runCLI("run", "--scenario", "uniform", "--n", "60",
		"--cpuprofile", cpu, "--memprofile", mem); code != 0 {
		t.Fatalf("run with profiles exited %d: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
	tr := filepath.Join(dir, "run.trace")
	if _, stderr, code := runCLI("run", "--scenario", "uniform", "--n", "60", "--trace", tr); code != 0 {
		t.Fatalf("run with trace exited %d: %s", code, stderr)
	}
	if st, err := os.Stat(tr); err != nil || st.Size() == 0 {
		t.Fatalf("trace %s missing or empty (err=%v)", tr, err)
	}
	if _, stderr, code := runCLI("run", "--n", "60", "--cpuprofile", cpu, "--trace", tr); code != 1 ||
		!strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("--cpuprofile with --trace: code=%d stderr=%s", code, stderr)
	}
}

// TestUsagePaths: no arguments and unknown subcommands exit 2 with usage;
// help exits 0.
func TestUsagePaths(t *testing.T) {
	if _, stderr, code := runCLI(); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Fatalf("no args: code=%d stderr=%q", code, stderr)
	}
	// bench and loadtest were retired in favour of the bench module.
	for _, sub := range []string{"frobnicate", "bench", "loadtest"} {
		if _, stderr, code := runCLI(sub); code != 2 || !strings.Contains(stderr, "unknown subcommand") {
			t.Fatalf("%s: code=%d stderr=%q", sub, code, stderr)
		}
	}
	if _, _, code := runCLI("help"); code != 0 {
		t.Fatalf("help exited %d", code)
	}
	if _, _, code := runCLI("run", "-h"); code != 0 {
		t.Fatalf("run -h exited %d, want 0 (explicit help request succeeds)", code)
	}
}

// TestRunNDJSONGolden pins the NDJSON output: one result object per line,
// spec order, same schema as the JSON results array.
func TestRunNDJSONGolden(t *testing.T) {
	stdout, _, code := runCLI("run", "--scenario", "uniform", "--n", "60",
		"--seeds", "2", "--seed", "7", "--algo", "greedy,naive", "--format", "ndjson")
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 4 {
		t.Fatalf("ndjson emitted %d lines, want 4", len(lines))
	}
	var normalized strings.Builder
	for _, line := range lines {
		normalized.WriteString(normalizeJSON(t, line))
	}
	checkGolden(t, "run_ndjson.golden", normalized.String())
}

// TestRunTimeoutFlushesPartial: an expired --timeout cancels the batch and
// the incremental CSV still holds every completed row — no discarded work,
// no torn lines.
func TestRunTimeoutFlushesPartial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "partial.csv")
	// 400 × 2000-node instances cannot finish in 300ms.
	_, stderr, code := runCLI("run", "--scenario", "uniform", "--n", "2000",
		"--seeds", "400", "--format", "csv", "--out", path, "--timeout", "300ms")
	if code != 1 {
		t.Fatalf("timed-out run exited %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "interrupted") {
		t.Fatalf("stderr does not report the interruption: %s", stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("flushed CSV does not parse: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("flushed CSV has %d rows, want header plus at least one completed result", len(rows))
	}
	if len(rows) >= 401 {
		t.Fatalf("timed-out run flushed all %d rows — cancellation never fired", len(rows)-1)
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) || row[len(row)-1] != "" {
			t.Fatalf("row %d incomplete or failed: %v", i, row)
		}
	}
}

// TestRunSIGINTFlush: a real SIGINT mid-batch exits with the interruption
// error after flushing the completed prefix — the graceful Ctrl-C path.
func TestRunSIGINTFlush(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGINT delivery on windows")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sigint.csv")
	type outcome struct {
		stderr string
		code   int
	}
	done := make(chan outcome, 1)
	go func() {
		// A batch far too large to finish: the test always interrupts it.
		_, stderr, code := runCLI("run", "--scenario", "uniform", "--n", "3000",
			"--seeds", "2000", "--format", "csv", "--out", path)
		done <- outcome{stderr, code}
	}()
	// Wait until at least one data row is flushed, then interrupt.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil && bytes.Count(data, []byte("\n")) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no incremental row appeared before the interrupt")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		if o.code != 1 || !strings.Contains(o.stderr, "interrupted") {
			t.Fatalf("SIGINT run: code=%d stderr=%s", o.code, o.stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGINT")
	}
	rows, err := csv.NewReader(bytes.NewReader(mustRead(t, path))).ReadAll()
	if err != nil {
		t.Fatalf("flushed CSV does not parse: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("flushed CSV has %d rows, want completed results", len(rows))
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServeFlagValidation: serve rejects positional arguments and bad
// listen addresses before binding anything.
func TestServeFlagValidation(t *testing.T) {
	if _, stderr, code := runCLI("serve", "extra"); code != 1 ||
		!strings.Contains(stderr, "no positional arguments") {
		t.Fatalf("serve with positional arg: code=%d stderr=%s", code, stderr)
	}
	if _, stderr, code := runCLI("serve", "--addr", "not-an-address:::"); code != 1 {
		t.Fatalf("serve with bad addr: code=%d stderr=%s", code, stderr)
	}
}
