// Command aggbench is aggrate's benchmark. It runs named workloads against
// the real entry points — experiment.Runner in a fresh child process per
// repetition, and `aggrate serve` as a subprocess driven by an open loop —
// checks every output, and prints every end-to-end metric by name and
// unit. With --trace it instead replays each spec layer by layer, one span
// per call into a package, and prints the per-layer metrics.
//
// Usage (from the repository root; bench/run.sh builds both binaries):
//
//	aggbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] --aggrate PATH
//	aggbench --write-expected
//
// Without --workload every workload runs in turn. The last line of standard
// output is one JSON object:
//
//	{"correct":true,"attempted":1,"failed":0,"metrics":{"certify_s":{"value":8.1,"unit":"s"},...}}
//
// carrying the end-to-end metrics, or with --trace the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"aggrate/internal/experiment"
)

// defaultSeed is the seed the committed goldens were made at.
const defaultSeed = 1

// expectedDir holds the goldens, relative to the repository root, where
// bench/run.sh runs aggbench.
const expectedDir = "bench/expected"

// expectedHorizon is the serve-mix run length (seconds) the serve-mix
// golden covers; longer runs leave their later specs unchecked.
const expectedHorizon = 60

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	toy     bool
	aggrate string
	out     string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(normalizeArgs(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "aggbench:", err)
		os.Exit(1)
	}
}

// normalizeArgs joins "--trace 0" and "--trace 1" into one argument, since
// --trace is also accepted bare.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "--trace" || a == "-trace") && i+1 < len(args) {
			if v := args[i+1]; v == "0" || v == "1" || v == "true" || v == "false" {
				a += "=" + v
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("aggbench", flag.ContinueOnError)
	var o options
	name := fs.String("workload", "", "workload to run (default: all of them in turn)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 20, "run length in seconds")
	fs.BoolVar(&o.trace, "trace", false, "replay every spec layer by layer and print the per-layer metrics")
	fs.BoolVar(&o.toy, "toy", false, "toy sizes (n <= 2000), for the smoke test; goldens are skipped")
	fs.StringVar(&o.aggrate, "aggrate", "", "path of the aggrate binary serve-mix starts")
	fs.StringVar(&o.out, "out", "bench/out", "directory for spans and the server's journals")
	write := fs.Bool("write-expected", false, "recompute the goldens at the default seed and write them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	todo := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}
	if *write {
		return writeExpected(expectedDir, todo)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	fmt.Printf("machine: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	ctx := context.Background()
	for _, w := range todo {
		var res runResult
		var err error
		defs := endToEnd
		switch {
		case o.trace && w.serve:
			res, err = traceServe(ctx, o, w)
		case o.trace:
			res, err = traceInProcess(ctx, o, w)
		case w.serve:
			res, err = measureServe(ctx, o, w)
		default:
			res, err = measureInProcess(ctx, o, w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if o.trace {
			defs = perLayer
		}
		res.render(os.Stdout, defs)
		if err := res.emit(defs); err != nil {
			return err
		}
	}
	return nil
}

// writeExpected recomputes the goldens of the given workloads at the default
// seed and full size through experiment.Runner.
func writeExpected(dir string, todo []workload) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range todo {
		specs := w.specList(defaultSeed, expectedHorizon, false)
		// serve-mix repeats specs; each distinct spec is stored once.
		seen := make(map[string]bool)
		var uniq []experiment.Spec
		for _, sp := range specs {
			if k := experiment.SpecKey(sp); !seen[k] {
				seen[k] = true
				uniq = append(uniq, sp)
			}
		}
		rep := runRunner(uniq, 0)
		for _, oc := range rep.Outcomes {
			if !oc.ok() {
				return fmt.Errorf("%s: %s did not certify: %s", w.name, oc.Label, oc.Err)
			}
		}
		b, err := json.MarshalIndent(expected{Workload: w.name, Seed: defaultSeed, Specs: rep.Outcomes}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(expectedPath(dir, w.name), append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "aggbench: wrote %d goldens for %s in %.1fs\n", len(uniq), w.name, rep.CertifyS)
	}
	return nil
}
