// Command aggrate runs the paper's aggregation-scheduling experiment loop
// end-to-end: deployment scenario → MST aggregation tree → scheduling
// strategy (conflict graph + coloring) → TDMA schedule → SINR verification.
//
// Subcommands:
//
//	aggrate run     — execute a (scenario × n × seed × power × algo) batch,
//	                  emit JSON, CSV, or NDJSON (CSV/NDJSON stream
//	                  incrementally as instances complete)
//	aggrate compare — run every scheduling strategy on identical instances
//	                  and print a per-strategy comparison table
//	aggrate serve   — long-running HTTP JSON job API over the same engine,
//	                  with a durable job journal, spec-keyed result caching,
//	                  admission control, and /metrics (see internal/service)
//
// The repository's benchmark lives in its own module: bash bench/run.sh.
//
// run accepts --cpuprofile/--memprofile to write pprof profiles of the
// exercised pipeline, --trace to capture a runtime/trace execution
// trace over the same window, and --timeout to bound the batch wall clock. A
// SIGINT (or an expired --timeout) cancels the engine mid-flight and
// flushes every completed result instead of discarding the batch.
//
// Examples:
//
//	aggrate run --scenario uniform --n 50000 --seeds 4
//	aggrate run --scenario cluster,annulus --n 1000,4000 --seeds 8 --power mean,global --format csv
//	aggrate run --scenario uniform --n 10000 --algo greedy,lengthclass --seeds 4
//	aggrate run --scenario uniform --n 20000 --seeds 64 --format ndjson --timeout 30s
//	aggrate compare --scenario uniform --n 5000 --seeds 3
//	aggrate serve --addr 127.0.0.1:8080
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"aggrate/internal/experiment"
	"aggrate/internal/scenario"
	"aggrate/internal/scheduler"
	"aggrate/internal/service"
	"aggrate/internal/sinr"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain is the testable entry point: it dispatches the subcommand and maps
// errors to exit codes (0 ok, 1 runtime failure, 2 usage).
func runMain(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:], stdout, stderr)
	case "compare":
		err = cmdCompare(args[1:], stdout, stderr)
	case "serve":
		err = cmdServe(args[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "aggrate: unknown subcommand %q\n\n", args[0])
		usage(stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		// An explicit help request is a success, matching flag.ExitOnError's
		// exit(0) convention; the flag package already printed the usage.
		return 0
	default:
		fmt.Fprintf(stderr, "aggrate: %v\n", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: aggrate <run|compare|serve> [flags]

run      executes an experiment batch; see 'aggrate run -h'
compare  runs all scheduling strategies on identical instances; see 'aggrate compare -h'
serve    runs the HTTP job API with a durable journal and result caching; see 'aggrate serve -h'

scenario presets: %s
algorithms:       %s
`, strings.Join(scenario.PresetNames(), ", "), strings.Join(scheduler.Names(), ", "))
}

// newFlagSet returns a subcommand flag set that reports parse errors instead
// of exiting, so runMain stays testable.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// profileFlags registers run's pprof and execution-trace flags; start
// begins the requested profiles and returns the function that stops the CPU
// profile and the trace and writes the heap profile. All three paths are
// optional and independent. CPU profiling and execution tracing are
// mutually exclusive in the runtime (tracing also samples the CPU
// profiler's signal), so requesting both is rejected up front.
type profileFlags struct {
	cpu, mem, trace *string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		cpu:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem:   fs.String("memprofile", "", "write a heap profile to this file on exit"),
		trace: fs.String("trace", "", "write a runtime execution trace to this file (view with 'go tool trace'); excludes --cpuprofile"),
	}
}

func (pf *profileFlags) start() (stop func() error, err error) {
	if *pf.cpu != "" && *pf.trace != "" {
		return nil, fmt.Errorf("--cpuprofile and --trace are mutually exclusive")
	}
	var cpuFile *os.File
	if *pf.cpu != "" {
		cpuFile, err = os.Create(*pf.cpu)
		if err != nil {
			return nil, fmt.Errorf("--cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("--cpuprofile: %w", err)
		}
	}
	var traceFile *os.File
	if *pf.trace != "" {
		traceFile, err = os.Create(*pf.trace)
		if err != nil {
			return nil, fmt.Errorf("--trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			return nil, fmt.Errorf("--trace: %w", err)
		}
	}
	memPath := *pf.mem
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("--memprofile: %w", err)
			}
			runtime.GC() // materialize the steady-state heap before snapshotting
			werr := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("--memprofile: %w", werr)
			}
		}
		return nil
	}, nil
}

// specFlags registers the instance-shaping flags shared by run and compare;
// specs parses them into the spec grid.
type specFlags struct {
	scenarios, ns, graph             *string
	seeds, workers                   *int
	seed                             *uint64
	gamma, delta, alpha, beta, noise *float64
	verify                           *bool
}

func addSpecFlags(fs *flag.FlagSet, defaultN string, defaultSeeds int) *specFlags {
	return &specFlags{
		scenarios: fs.String("scenario", "uniform", "comma-separated scenario presets"),
		ns:        fs.String("n", defaultN, "comma-separated instance sizes (nodes)"),
		seeds:     fs.Int("seeds", defaultSeeds, "seeds per parameter cell (every algorithm sees the same seeds)"),
		seed:      fs.Uint64("seed", 1, "base seed; instance k uses seed+k"),
		graph:     fs.String("graph", "obl", "conflict graph kind (gamma, obl, arb)"),
		gamma:     fs.Float64("gamma", 2, "initial conflict parameter γ"),
		delta:     fs.Float64("delta", 0.5, "exponent δ of G^δ_γ (graph=obl)"),
		alpha:     fs.Float64("alpha", 3, "path-loss exponent α > 2"),
		beta:      fs.Float64("beta", 2, "SINR threshold β"),
		noise:     fs.Float64("noise", 0, "ambient noise N"),
		verify:    fs.Bool("verify", true, "verify every slot against the SINR condition, escalating γ on failure"),
		workers:   fs.Int("workers", 0, "parallel instances (0 = GOMAXPROCS)"),
	}
}

// specs expands the flags over the given power and algorithm lists and
// validates every spec of the grid, so a typo fails before any instance
// runs instead of as a per-instance error mid-batch.
func (sf *specFlags) specs(powers, algos []string, refine bool) ([]experiment.Spec, error) {
	scList, err := parseScenarios(*sf.scenarios)
	if err != nil {
		return nil, err
	}
	nList, err := parseInts(*sf.ns)
	if err != nil {
		return nil, fmt.Errorf("bad --n: %w", err)
	}
	// An empty value would silently take the Spec default.
	for _, f := range []struct {
		name string
		vals []string
	}{{"power", powers}, {"algo", algos}, {"graph", []string{*sf.graph}}} {
		if len(f.vals) == 0 || slices.Contains(f.vals, "") {
			return nil, fmt.Errorf("--%s is empty", f.name)
		}
	}
	base := experiment.Spec{
		Seed:   *sf.seed,
		Graph:  *sf.graph,
		Gamma:  *sf.gamma,
		Delta:  *sf.delta,
		SINR:   sinr.Params{Alpha: *sf.alpha, Beta: *sf.beta, Noise: *sf.noise, Epsilon: 0.5},
		Refine: refine,
		Verify: *sf.verify,
	}
	specs := experiment.Expand(scList, nList, *sf.seeds, powers, algos, base)
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// batchContext builds the batch's cancellation context: an optional
// deadline from --timeout, plus SIGINT so an interrupted batch flushes its
// completed results instead of discarding them.
func batchContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := context.Background()
	cancels := make([]context.CancelFunc, 0, 2)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		cancels = append(cancels, cancel)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	cancels = append(cancels, stop)
	return ctx, func() {
		for _, c := range cancels {
			c()
		}
	}
}

// newBatchContext is the seam through which run and compare get their batch
// context; a test swaps it to choose the moment the deadline fires.
var newBatchContext = batchContext

func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("run", stderr)
	sf := addSpecFlags(fs, "1000", 1)
	powers := fs.String("power", "mean", "comma-separated power schemes (uniform, mean, linear, global)")
	algos := fs.String("algo", scheduler.Greedy, "comma-separated scheduling algorithms ("+strings.Join(scheduler.Names(), ", ")+")")
	refine := fs.Bool("refine", false, "also run the Theorem-2 refinement (O(n²); slow above ~20k links)")
	format := fs.String("format", "json", "output format: json, csv, or ndjson (csv/ndjson stream incrementally)")
	out := fs.String("out", "-", "output path ('-' = stdout)")
	summaryOnly := fs.Bool("summary-only", false, "emit only the aggregated summaries (json)")
	timeout := fs.Duration("timeout", 0, "cancel the batch after this duration, flushing completed results (0 = none)")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *format != "json" && *format != "csv" && *format != "ndjson" {
		return fmt.Errorf("unknown --format %q (want json, csv, or ndjson)", *format)
	}
	if *summaryOnly && *format != "json" {
		return fmt.Errorf("--summary-only requires --format json (csv/ndjson have no summary form)")
	}
	specs, err := sf.specs(splitList(*powers), splitList(*algos), *refine)
	if err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(stderr, "aggrate: profile: %v\n", perr)
		}
	}()

	fmt.Fprintf(stderr, "aggrate: running %d instances on %d workers\n",
		len(specs), experiment.Workers(*sf.workers, len(specs)))

	ctx, cancel := newBatchContext(*timeout)
	defer cancel()

	w, closeFn, err := openOut(*out, stdout)
	if err != nil {
		return err
	}
	// CSV and NDJSON emit incrementally: each result is written as soon as
	// every earlier spec's result is in (the ordered emitter buffers
	// out-of-order completions), so the file's row order is deterministic
	// and a long batch is inspectable while it runs. JSON needs the closing
	// summaries, so it stays collect-then-write.
	var emit *orderedEmitter
	switch *format {
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write(csvHeader()); err != nil {
			closeFn()
			return err
		}
		emit = &orderedEmitter{emit: func(r *experiment.Result) error {
			if err := cw.Write(csvRow(r)); err != nil {
				return err
			}
			cw.Flush()
			return cw.Error()
		}}
	case "ndjson":
		enc := json.NewEncoder(w)
		emit = &orderedEmitter{emit: func(r *experiment.Result) error { return enc.Encode(r) }}
	}

	start := time.Now()
	runner := experiment.Runner{Workers: *sf.workers}
	if emit != nil {
		runner.Sink = func(i int, r *experiment.Result) { emit.add(i, r) }
	}
	results, runErr := runner.Run(ctx, specs)
	elapsed := time.Since(start)

	completed, failed := 0, 0
	for _, r := range results {
		if r == nil {
			continue
		}
		completed++
		if r.Err != "" {
			failed++
		}
	}
	fmt.Fprintf(stderr, "aggrate: %d/%d instances ok in %.2fs\n",
		completed-failed, len(results), elapsed.Seconds())

	var werr error
	if emit != nil {
		// Flush stragglers: results completed out of order past a gap left
		// by the cancellation. Rows stay in increasing spec order.
		emit.flush()
		werr = emit.err
	} else {
		done := results
		if runErr != nil {
			done = make([]*experiment.Result, 0, completed)
			for _, r := range results {
				if r != nil {
					done = append(done, r)
				}
			}
		}
		payload := map[string]any{
			"summaries": experiment.Aggregate(done),
		}
		if !*summaryOnly {
			payload["results"] = done
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		werr = enc.Encode(payload)
	}
	if cerr := closeFn(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	if runErr != nil {
		return fmt.Errorf("batch interrupted (%v); flushed %d/%d completed instances",
			runErr, completed, len(specs))
	}
	if failed > 0 {
		return fmt.Errorf("%d instance(s) failed; see the error field in the output", failed)
	}
	return nil
}

// orderedEmitter replays sink callbacks in spec order: result i is emitted
// once results 0..i-1 have been, so incremental output is deterministic
// regardless of completion order. Runner serializes sink calls, and flush
// runs after Run returns — no locking needed.
type orderedEmitter struct {
	next    int
	pending map[int]*experiment.Result
	emit    func(*experiment.Result) error
	err     error
}

func (e *orderedEmitter) add(i int, r *experiment.Result) {
	if e.pending == nil {
		e.pending = make(map[int]*experiment.Result)
	}
	e.pending[i] = r
	for e.err == nil {
		r, ok := e.pending[e.next]
		if !ok {
			return
		}
		delete(e.pending, e.next)
		e.next++
		e.err = e.emit(r)
	}
}

// flush drains the remaining out-of-order completions (the gaps of a
// cancelled batch) in increasing spec order.
func (e *orderedEmitter) flush() {
	for e.err == nil && len(e.pending) > 0 {
		for !e.pendingHas(e.next) {
			e.next++
		}
		r := e.pending[e.next]
		delete(e.pending, e.next)
		e.next++
		e.err = e.emit(r)
	}
}

func (e *orderedEmitter) pendingHas(i int) bool {
	_, ok := e.pending[i]
	return ok
}

func csvHeader() []string {
	return []string{
		"scenario", "n", "seed", "power", "graph", "algo", "links", "diversity",
		"logstar", "edges", "max_degree", "colors", "max_back_degree", "schedule_length",
		"rate", "colors_per_logstar", "length_classes", "gamma_used",
		"gamma_retries", "margin", "verified", "refine_sets", "build_sec",
		"build_filter_sec", "build_reused",
		"order_sec", "color_sec", "verify_sec", "total_sec", "error",
	}
}

func csvRow(r *experiment.Result) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	return []string{
		r.Scenario, strconv.Itoa(r.N), strconv.FormatUint(r.Seed, 10),
		r.Power, r.Graph, r.Algo, strconv.Itoa(r.Links), f(r.Diversity),
		strconv.Itoa(r.LogStar), strconv.Itoa(r.Edges),
		strconv.Itoa(r.MaxDegree), strconv.Itoa(r.Colors), strconv.Itoa(r.MaxBackDegree),
		strconv.Itoa(r.ScheduleLength), f(r.Rate), f(r.ColorsPerLogStar),
		strconv.Itoa(r.Classes),
		f(r.GammaUsed), strconv.Itoa(r.GammaRetries), f(r.Margin),
		strconv.FormatBool(r.Verified), strconv.Itoa(r.RefineSets),
		f(r.Timings.BuildSec),
		f(r.Timings.BuildFilterSec), strconv.FormatBool(r.Timings.BuildReused),
		f(r.Timings.OrderSec), f(r.Timings.ColorSec),
		f(r.Timings.VerifySec), f(r.Timings.TotalSec), r.Err,
	}
}

// cmdCompare runs every requested strategy on identical instances (same
// scenario, n, seed, power, graph — hence the same pointsets and trees) and
// prints a per-strategy table: mean colors, schedule length, rate, the
// paper's normalized colors/log*Δ, and wall time. --out optionally saves the
// full results + summaries as JSON for the CI artifact.
func cmdCompare(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("compare", stderr)
	sf := addSpecFlags(fs, "5000", 3)
	power := fs.String("power", "mean", "power scheme shared by all algorithms")
	algos := fs.String("algo", strings.Join(scheduler.Names(), ","), "comma-separated algorithms to compare")
	out := fs.String("out", "", "also write full results + summaries as JSON to this path ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	algoList := splitList(*algos)
	specs, err := sf.specs([]string{*power}, algoList, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "aggrate: comparing %d algorithms over %d instances on %d workers\n",
		len(algoList), len(specs), experiment.Workers(*sf.workers, len(specs)))
	ctx, cancel := newBatchContext(0)
	defer cancel()
	start := time.Now()
	results, _ := (&experiment.Runner{Workers: *sf.workers}).Run(ctx, specs) // its error is ctx.Err(), checked below
	fmt.Fprintf(stderr, "aggrate: done in %.2fs\n", time.Since(start).Seconds())

	// Aggregate skips nil entries, so an interrupted compare still prints
	// the table over the completed instances.
	summaries := experiment.Aggregate(results)
	writeCompareTable(stdout, summaries)

	failed := 0
	for _, r := range results {
		if r != nil && r.Err != "" {
			failed++
		}
	}
	if *out != "" {
		w, closeFn, err := openOut(*out, stdout)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		werr := enc.Encode(map[string]any{"summaries": summaries, "results": results})
		if cerr := closeFn(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("compare interrupted (%v); table covers the completed instances", err)
	}
	if failed > 0 {
		return fmt.Errorf("%d instance(s) failed; see the error field in the output", failed)
	}
	return nil
}

// writeCompareTable renders one table block per (scenario, n, power, graph)
// cell, one row per algorithm. Aggregate returns the summaries sorted with
// algo as the innermost key, so cells are contiguous runs.
func writeCompareTable(w io.Writer, summaries []experiment.Summary) {
	type cell struct {
		Scenario string
		N        int
		Power    string
		Graph    string
	}
	var cur cell
	var tw *tabwriter.Writer
	flush := func() {
		if tw != nil {
			tw.Flush()
		}
	}
	for _, s := range summaries {
		c := cell{s.Scenario, s.N, s.Power, s.Graph}
		if c != cur || tw == nil {
			flush()
			cur = c
			fmt.Fprintf(w, "\nscenario=%s n=%d power=%s graph=%s seeds=%d log*Δ=%.0f\n",
				s.Scenario, s.N, s.Power, s.Graph, s.Seeds, s.MeanLogStar)
			tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "  algo\tcolors\tsched_len\trate\tcolors/log*Δ\tgamma\terrors\ttime")
		}
		fmt.Fprintf(tw, "  %s\t%.1f\t%.1f\t%.5f\t%.2f\t%.3g\t%d/%d\t%.3fs\n",
			s.Algo, s.MeanColors, s.MeanLength, s.MeanRate, s.MeanColorsPerLogStar,
			s.MeanGamma, s.Errors, s.Seeds, s.MeanTotalSec)
	}
	flush()
}

// cmdServe runs the HTTP job API (internal/service) until SIGINT/SIGTERM:
// POST /v1/jobs submits a spec grid, GET /v1/jobs/{id} reports progress, GET
// /v1/jobs/{id}/stream streams events and results as NDJSON, DELETE
// /v1/jobs/{id} cancels via the engine's context plumbing, GET /v1/healthz
// reports liveness, GET /metrics exposes Prometheus text. With --journal set
// the server is durable: a restart resumes interrupted jobs from their last
// completed spec. Repeated specs are served from a byte-budgeted LRU cache
// keyed by the canonical spec hash.
func cmdServe(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("serve", stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "per-job instance pool width (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 4096, "LRU result-cache capacity in specs")
	cacheBytes := fs.Int64("cache-bytes", 256<<20, "LRU result-cache budget in approximate encoded bytes")
	queueSize := fs.Int("queue", 64, "bounded job-queue length (submissions beyond it get 503)")
	maxSpecs := fs.Int("max-specs", 10000, "largest grid a single job may expand to")
	maxJobs := fs.Int("max-jobs", 1024, "job records retained; oldest finished jobs are evicted past this")
	instCache := fs.Int("instance-cache", 0, "LRU deployment-build cache entries shared across jobs (0 = default, negative disables)")
	journalPath := fs.String("journal", "", "job journal path; empty disables durability")
	journalMax := fs.Int64("journal-max-bytes", 64<<20, "compact the journal once it grows past this many bytes")
	rateLimit := fs.Float64("rate-limit", 0, "per-client submissions/sec (token bucket); 0 disables")
	rateBurst := fs.Int("rate-burst", 0, "token-bucket depth (0 = max(1, ceil(rate-limit)))")
	maxPerClient := fs.Int("max-jobs-per-client", 0, "live (queued+running) jobs a client may hold; 0 disables")
	shedWatermark := fs.Float64("shed-watermark", 0.75, "queue-depth fraction past which large grids are shed")
	shedMaxSpecs := fs.Int("shed-max-specs", 64, "largest grid admitted while shedding")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound before in-flight work is hard-cancelled")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no positional arguments, got %q", fs.Args())
	}

	faults := service.FaultsFromEnv()
	if faults.JournalFailEvery > 0 || faults.JournalStall > 0 || faults.KillAfterSpecs > 0 {
		fmt.Fprintf(stderr, "aggrate: FAULT INJECTION ARMED: %+v\n", faults)
	}
	svc, err := service.New(service.Config{
		Workers:           *workers,
		QueueSize:         *queueSize,
		CacheSize:         *cacheSize,
		CacheBytes:        *cacheBytes,
		MaxSpecs:          *maxSpecs,
		MaxJobs:           *maxJobs,
		InstanceCacheSize: *instCache,
		JournalPath:       *journalPath,
		JournalMaxBytes:   *journalMax,
		RateLimit:         *rateLimit,
		RateBurst:         *rateBurst,
		MaxJobsPerClient:  *maxPerClient,
		ShedWatermark:     *shedWatermark,
		ShedMaxSpecs:      *shedMaxSpecs,
		Faults:            faults,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the machine-readable handshake: with
	// --addr :0 it is how callers (CI smoke, scripts) learn the port.
	fmt.Fprintf(stderr, "aggrate: serving on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stderr, "aggrate: draining (next spec boundary, journal fsync)")
		// Drain the service before the HTTP server: an open /stream handler
		// only returns once its job goes terminal, so finishing the jobs
		// (gracefully, at a spec boundary, with the journal fsynced) is what
		// lets srv.Shutdown complete.
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		svc.Shutdown(drainCtx)
		cancel()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}

func parseScenarios(s string) ([]experiment.Scenario, error) {
	var out []experiment.Scenario
	for _, name := range splitList(s) {
		sc, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios given")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// openOut returns the output writer and a close function whose error must
// be checked after the last write: for files it is (*os.File).Close, which
// is where a full disk or NFS flush failure surfaces.
func openOut(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" || path == "" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
