package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"aggrate/internal/experiment"
	"aggrate/internal/service"
	"aggrate/internal/stats"
)

// serveDrainLimit bounds how long the loop waits, after the last arrival,
// for the outstanding jobs to finish; jobs still open then count as failed.
const serveDrainLimit = 60 * time.Second

// server is one `aggrate serve` subprocess.
type server struct {
	cmd    *exec.Cmd
	url    string
	setupS float64
	logs   chan struct{} // closed once the server's stderr reaches EOF
}

// startServer boots `aggrate serve` on a free port with a journal and
// returns once /v1/healthz answers ok. setupS is spawn to healthy.
func startServer(ctx context.Context, bin, journal string) (*server, error) {
	cmd := exec.CommandContext(ctx, bin, "serve", "--addr", "127.0.0.1:0", "--journal", journal)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stdout = os.Stderr
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				addr <- strings.TrimSpace(line[i+len("serving on "):])
				break
			}
			fmt.Fprintln(os.Stderr, "serve:", line)
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case s.url = <-addr:
	case <-s.logs:
		_ = cmd.Wait()
		return nil, fmt.Errorf("aggrate serve exited before listening")
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("aggrate serve did not listen within 30s")
	}
	for {
		if healthy(s.url) {
			s.setupS = time.Since(t0).Seconds()
			return s, nil
		}
		if time.Since(t0) > 30*time.Second {
			s.kill()
			return nil, fmt.Errorf("aggrate serve not healthy within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

func healthy(url string) bool {
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Status == "ok"
}

// stop drains the server with SIGINT and returns its CPU time and peak RSS.
func (s *server) stop() (cpuS, rssMB float64, err error) {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return 0, 0, err
	}
	<-s.logs
	if err := s.cmd.Wait(); err != nil {
		return 0, 0, fmt.Errorf("aggrate serve: %w", err)
	}
	cpuS, rssMB = rusage(s.cmd.ProcessState)
	return cpuS, rssMB, nil
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.logs
	_ = s.cmd.Wait()
}

// jobRecord is what the client saw of one job: when it was due, when the
// loop dispatched it, when it got a connection and was sent, when the
// submit returned and when the done line arrived.
type jobRecord struct {
	due, launched, start, submitted, done time.Time
	// Server clock, from the job record and its stream events.
	created, running, finished time.Time
	status                     string
	items                      []service.StreamItem
	err                        error
}

// streamLine decodes any line of a job's NDJSON stream: a lifecycle event,
// a completed spec, or the terminal line.
type streamLine struct {
	Time    time.Time          `json:"time"`
	Event   string             `json:"event"`
	SpecKey string             `json:"spec_key"`
	Result  *experiment.Result `json:"result"`
	Done    bool               `json:"done"`
	Status  string             `json:"status"`
}

// runJob submits one job at its due time and follows its stream to the
// terminal line.
func runJob(ctx context.Context, client *http.Client, url string, j serveJob, due time.Time) jobRecord {
	rec := jobRecord{due: due, start: time.Now()}
	body, err := json.Marshal(j.req)
	if err != nil {
		rec.err = err
		return rec
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := client.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	rec.submitted = time.Now()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		rec.err = fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, err)
		return rec
	}
	rec.created = st.CreatedAt
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err = client.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			rec.err = fmt.Errorf("stream: %w", err)
			return rec
		}
		switch {
		case l.Done:
			rec.done, rec.status = time.Now(), l.Status
			return rec
		case l.Result != nil:
			rec.items = append(rec.items, service.StreamItem{SpecKey: l.SpecKey, Result: l.Result})
		case l.Event == "running":
			rec.running = l.Time
		case l.Event == service.StatusDone:
			rec.finished = l.Time
		}
	}
	rec.err = fmt.Errorf("stream ended without a terminal line: %v", sc.Err())
	return rec
}

// openLoop sends every job at its due time, with at most nproc requests in
// flight, and waits for all of them.
func openLoop(ctx context.Context, url string, jobs []serveJob) []jobRecord {
	nproc := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	sem := make(chan struct{}, nproc)
	recs := make([]jobRecord, len(jobs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, j := range jobs {
		due := t0.Add(time.Duration(j.due * float64(time.Second)))
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
		}
		launched := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				recs[i] = jobRecord{due: due, launched: launched, err: ctx.Err()}
				return
			}
			defer func() { <-sem }()
			recs[i] = runJob(ctx, client, url, j, due)
			recs[i].launched = launched
		}()
	}
	wg.Wait()
	return recs
}

// scrape reads the server's /metrics into series → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serveRun is one serve-mix run against a live server.
type serveRun struct {
	jobs          []serveJob
	recs          []jobRecord
	before, after map[string]float64
	setups        []float64
	cpuS, rssMB   float64
}

// driveServer boots the probe servers and the loaded one, runs the open
// loop, and stops the server.
func driveServer(ctx context.Context, o options) (serveRun, error) {
	if o.aggrate == "" {
		return serveRun{}, fmt.Errorf("serve-mix needs --aggrate, the path of the aggrate binary")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return serveRun{}, err
	}
	tmp, err := os.MkdirTemp(o.out, "serve-")
	if err != nil {
		return serveRun{}, err
	}
	defer os.RemoveAll(tmp)
	run := serveRun{jobs: serveTraffic(o.seed, o.seconds, o.toy)}
	journal := func(i int) string { return filepath.Join(tmp, fmt.Sprintf("journal-%d.ndjson", i)) }
	// Every boot but the last only times spawn-to-healthy.
	for i := 1; i < setupSamples; i++ {
		s, err := startServer(ctx, o.aggrate, journal(i))
		if err != nil {
			return serveRun{}, err
		}
		run.setups = append(run.setups, s.setupS)
		if _, _, err := s.stop(); err != nil {
			return serveRun{}, err
		}
	}
	s, err := startServer(ctx, o.aggrate, journal(0))
	if err != nil {
		return serveRun{}, err
	}
	run.setups = append(run.setups, s.setupS)
	if run.before, err = scrape(s.url); err != nil {
		s.kill()
		return serveRun{}, err
	}
	loopCtx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds*float64(time.Second))+serveDrainLimit)
	run.recs = openLoop(loopCtx, s.url, run.jobs)
	cancel()
	if run.after, err = scrape(s.url); err != nil {
		s.kill()
		return serveRun{}, err
	}
	if run.cpuS, run.rssMB, err = s.stop(); err != nil {
		return serveRun{}, err
	}
	return run, nil
}

// check counts each job as one attempt: it fails on any error, rejection,
// a status other than done, a spec key other than the one the bench
// expects, or a result the checker rejects. It returns the outcomes of the
// jobs in order (zero for failed jobs).
func (run serveRun) check(chk *checker) []outcome {
	outs := make([]outcome, len(run.jobs))
	for i, rec := range run.recs {
		j := run.jobs[i]
		switch {
		case rec.err != nil || rec.status != service.StatusDone || len(rec.items) != 1:
			chk.attempted++
			chk.failed++
			fmt.Fprintf(os.Stderr, "aggbench: job %d (%s) failed: status %q, %d results, %v\n",
				i, label(j.spec), rec.status, len(rec.items), rec.err)
			continue
		case rec.items[0].SpecKey != experiment.SpecKey(j.spec):
			chk.attempted++
			chk.failed++
			fmt.Fprintf(os.Stderr, "aggbench: job %d: server spec key %s, expected %s\n",
				i, rec.items[0].SpecKey, experiment.SpecKey(j.spec))
			continue
		}
		outs[i] = fromResult(j.spec, rec.items[0].Result)
		chk.check(outs[i])
	}
	return outs
}

func delta(run serveRun, series string) float64 { return run.after[series] - run.before[series] }

func hitFrac(run serveRun, prefix string) float64 {
	h, m := delta(run, prefix+"_hits_total"), delta(run, prefix+"_misses_total")
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// jobTimes are the per-job times, in seconds, of the jobs that reached
// done: latency from the due time to the done line, generator lag (due to
// dispatch; the wait for one of the nproc connections counts as latency,
// not lag), the submit round trip, queue wait and run time (server clock,
// created → running → done).
type jobTimes struct {
	latency, lag, submit, queueWait, run []float64
}

func (run serveRun) times() jobTimes {
	var t jobTimes
	for _, rec := range run.recs {
		if rec.done.IsZero() {
			continue
		}
		t.latency = append(t.latency, rec.done.Sub(rec.due).Seconds())
		t.lag = append(t.lag, rec.launched.Sub(rec.due).Seconds())
		t.submit = append(t.submit, rec.submitted.Sub(rec.start).Seconds())
		t.queueWait = append(t.queueWait, rec.running.Sub(rec.created).Seconds())
		t.run = append(t.run, rec.finished.Sub(rec.running).Seconds())
	}
	return t
}

// measureServe is the untraced serve-mix run. Its certify_s is the time the
// server's executor spent certifying: the sum of the jobs' run times.
func measureServe(ctx context.Context, o options, w workload) (runResult, error) {
	chk, err := newChecker(o, w)
	if err != nil {
		return runResult{}, err
	}
	run, err := driveServer(ctx, o)
	if err != nil {
		return runResult{}, err
	}
	slots := 0
	for _, oc := range run.check(chk) {
		slots += oc.Slots
	}
	t := run.times()
	busy := 0.0
	for _, r := range t.run {
		busy += r
	}
	return runResult{
		workload: w.name, attempted: chk.attempted, failed: chk.failed,
		values: map[string]sample{
			"certify_s":   one(busy),
			"cpu_s":       one(run.cpuS),
			"peak_rss_mb": one(run.rssMB),
			"setup_s":     median(run.setups),
			"slots_total": one(float64(slots)),
		},
		notes: []string{fmt.Sprintf("job latency from due time: p50 %.6g s, p90 %.6g s over %d done jobs (%d sent at %.3g jobs/s); generator lag p50 %.4gs max %.4gs",
			stats.Percentile(t.latency, 50), stats.Percentile(t.latency, 90), len(t.latency), len(run.jobs),
			serveRate, stats.Median(t.lag), stats.Max(t.lag))},
	}, nil
}

// traceServe is the traced serve-mix run: the service metrics come from the
// live server's job records and /metrics deltas, the layer metrics from the
// replay of the job stream's specs, which must reproduce the server's
// outcomes and the untraced Workers=1 Runner's bit for bit.
func traceServe(ctx context.Context, o options, w workload) (runResult, error) {
	chk, err := newChecker(o, w)
	if err != nil {
		return runResult{}, err
	}
	run, err := driveServer(ctx, o)
	if err != nil {
		return runResult{}, err
	}
	outs := run.check(chk)
	r1, err := spawnChild(ctx, o, w, modeRunner1, "")
	if err != nil {
		return runResult{}, err
	}
	rp, err := spawnChild(ctx, o, w, modeReplay, spansPath(o.out, w.name))
	if err != nil {
		return runResult{}, err
	}
	for i, oc := range r1.report.Outcomes {
		chk.same("replay", rp.report.Outcomes[i], oc)
		if outs[i].Key != "" {
			chk.same("server", outs[i], oc)
		}
	}
	res := traceResult(w, chk, rp.report, r1)
	t := run.times()
	rejected := 0.0
	for k := range run.after {
		if strings.HasPrefix(k, "aggrate_admission_rejected_total") {
			rejected += delta(run, k)
		}
	}
	for name, v := range map[string]float64{
		"service.job_p50_s":         stats.Percentile(t.latency, 50),
		"service.job_p90_s":         stats.Percentile(t.latency, 90),
		"service.submit_p50_s":      stats.Median(t.submit),
		"service.queue_wait_p50_s":  stats.Percentile(t.queueWait, 50),
		"service.queue_wait_p90_s":  stats.Percentile(t.queueWait, 90),
		"service.run_p50_s":         stats.Median(t.run),
		"service.result_hit_frac":   hitFrac(run, "aggrate_cache"),
		"service.instance_hit_frac": hitFrac(run, "aggrate_instance_cache"),
		"service.sched_hit_frac":    hitFrac(run, "aggrate_sched_cache"),
		"service.fsyncs_per_job":    delta(run, "aggrate_journal_fsyncs_total") / float64(len(run.jobs)),
		"service.rejected":          rejected,
	} {
		res.values[name] = one(v)
	}
	return res, nil
}
