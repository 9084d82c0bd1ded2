package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"aggrate/internal/experiment"
)

// Child modes. Each repetition of an in-process workload runs in a fresh
// child process, so its CPU time and peak RSS come from rusage and no
// state carries over between repetitions.
const (
	modeRunner  = "runner"  // experiment.Runner with Workers=GOMAXPROCS
	modeRunner1 = "runner1" // experiment.Runner with Workers=1
	modeReplay  = "replay"  // the traced layer-by-layer replay (one worker)
	modeProbe   = "probe"   // set up, announce readiness, exit
)

// readyLine is the child's first line of output, printed right before the
// first spec is handed to the Runner (or the replay).
const readyLine = `{"ready":true}`

// childReport is the child's last line of output.
type childReport struct {
	CertifyS float64   `json:"certify_s"`
	DoneS    []float64 `json:"done_s"` // completion offset of each spec from the start
	Outcomes []outcome `json:"outcomes"`
	// Replay mode only.
	Layers          map[string]float64 `json:"layers,omitempty"`
	Table           []layerRow         `json:"table,omitempty"`
	UnattributedMax float64            `json:"unattributed_max,omitempty"`
}

// childMain is the entry point of `aggbench child`.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "serve-mix horizon the job stream is drawn for")
	toy := fs.Bool("toy", false, "toy sizes")
	mode := fs.String("mode", modeRunner, "runner, runner1, replay or probe")
	spans := fs.String("spans", "", "replay: write spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	specs := w.specList(*seed, *seconds, *toy)
	if _, err := fmt.Println(readyLine); err != nil {
		return err
	}
	var rep childReport
	switch *mode {
	case modeProbe:
		return nil
	case modeRunner, modeRunner1:
		workers := 0
		if *mode == modeRunner1 {
			workers = 1
		}
		rep = runRunner(specs, workers)
	case modeReplay:
		rec := runReplay(specs)
		rep = rec.report
		if *spans != "" {
			if err := writeSpans(*spans, *name, *seed, rec.spans); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown child mode %q", *mode)
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runRunner certifies the specs through experiment.Runner.
func runRunner(specs []experiment.Spec, workers int) childReport {
	rep := childReport{DoneS: make([]float64, len(specs)), Outcomes: make([]outcome, len(specs))}
	start := time.Now()
	r := experiment.Runner{Workers: workers, Sink: func(i int, _ *experiment.Result) {
		rep.DoneS[i] = time.Since(start).Seconds()
	}}
	// Run only returns the context's error, and this context never ends;
	// a spec's own failure is in its Result.
	results, _ := r.Run(context.Background(), specs)
	rep.CertifyS = time.Since(start).Seconds()
	for i, res := range results {
		rep.Outcomes[i] = fromResult(specs[i], res)
	}
	return rep
}

type replayRun struct {
	report childReport
	spans  []span
}

// runReplay replays the specs in order with tracing.
func runReplay(specs []experiment.Spec) replayRun {
	rp := newReplayer()
	rep := childReport{DoneS: make([]float64, len(specs)), Outcomes: make([]outcome, len(specs))}
	start := time.Now()
	for i, sp := range specs {
		rep.Outcomes[i] = rp.run(context.Background(), sp, i+1)
		rep.DoneS[i] = time.Since(start).Seconds()
	}
	rep.CertifyS = time.Since(start).Seconds()
	spans := rp.rec.snapshot()
	rep.Layers, rep.Table, rep.UnattributedMax = layerReport(spans, rp.tot)
	return replayRun{report: rep, spans: spans}
}

// childRun is what the parent measured of one child process.
type childRun struct {
	setupS, cpuS, rssMB float64
	report              childReport
}

// spawnChild runs `aggbench child` and measures it: set-up time from spawn
// to the ready line, CPU time and peak RSS from rusage.
func spawnChild(ctx context.Context, o options, w workload, mode, spansPath string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"child", "--workload", w.name, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--mode", mode}
	if o.toy {
		args = append(args, "--toy")
	}
	if spansPath != "" {
		args = append(args, "--spans", spansPath)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	br := bufio.NewReader(stdout)
	first, err := br.ReadBytes('\n')
	var run childRun
	run.setupS = time.Since(t0).Seconds()
	rest, rerr := io.ReadAll(br)
	werr := cmd.Wait()
	switch {
	case err != nil:
		return childRun{}, fmt.Errorf("child %s: no ready line: %v (wait: %v)", mode, err, werr)
	case rerr != nil:
		return childRun{}, fmt.Errorf("child %s: %w", mode, rerr)
	case werr != nil:
		return childRun{}, fmt.Errorf("child %s: %w", mode, werr)
	case string(bytes.TrimSpace(first)) != readyLine:
		return childRun{}, fmt.Errorf("child %s: unexpected first line %q", mode, first)
	}
	run.cpuS, run.rssMB = rusage(cmd.ProcessState)
	if mode == modeProbe {
		return run, nil
	}
	if err := json.Unmarshal(bytes.TrimSpace(rest), &run.report); err != nil {
		return childRun{}, fmt.Errorf("child %s: report: %w", mode, err)
	}
	return run, nil
}

// dieWithParent makes a child process receive SIGKILL if aggbench dies
// first, so no child outlives an interrupted run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// rusage returns user+sys CPU seconds and peak RSS in MB of an exited
// process (Linux reports ru_maxrss in KiB).
func rusage(ps *os.ProcessState) (cpuS, rssMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// spansPath is where a traced run of a workload writes its spans.
func spansPath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".spans.json")
}
