package service

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// Faults is the injectable fault layer: every knob is off (zero) by default
// and only test code, the AGGRATE_FAULT_* environment variables, or explicit
// flags turn one on. The production paths consult it through cheap atomic
// counters, so a zero Faults costs nothing measurable.
type Faults struct {
	// JournalFailEvery makes every Nth journal append fail with an injected
	// error (N >= 1; 1 fails every append). The server degrades to
	// non-durable operation: the error is counted in
	// aggrate_journal_errors_total and the job proceeds.
	JournalFailEvery int
	// JournalStall sleeps this long before every journal append — a slow or
	// contended disk. Job execution shares the append path, so stalls
	// surface as end-to-end latency, exactly like a real slow disk.
	JournalStall time.Duration
	// KillAfterSpecs hard-kills the process (exit 137, the SIGKILL code)
	// after this many spec completions — a deterministic mid-job crash for
	// recovery drills. In-process tests use (*Server).Crash instead.
	KillAfterSpecs int
}

// Armed reports whether any fault is on.
func (f Faults) Armed() bool {
	return f.JournalFailEvery > 0 || f.JournalStall > 0 || f.KillAfterSpecs > 0
}

// faultState pairs the (copyable) Faults config with the runtime counters
// that drive every-Nth and after-Nth triggers.
type faultState struct {
	Faults
	appends atomic.Int64
	specs   atomic.Int64
}

// beforeAppend applies the journal-write faults: stall first, then maybe
// fail.
func (f *faultState) beforeAppend() error {
	if f == nil {
		return nil
	}
	if f.JournalStall > 0 {
		time.Sleep(f.JournalStall)
	}
	if f.JournalFailEvery > 0 && f.appends.Add(1)%int64(f.JournalFailEvery) == 0 {
		return fmt.Errorf("injected journal write error (append %d)", f.appends.Load())
	}
	return nil
}

// crashFn is swapped out only by tests that must not kill the test process.
var crashFn = func() { os.Exit(137) }

// onSpecDone counts a spec completion and crashes the process when
// KillAfterSpecs is armed and reached.
func (f *faultState) onSpecDone() {
	if f == nil || f.KillAfterSpecs <= 0 {
		return
	}
	if f.specs.Add(1) == int64(f.KillAfterSpecs) {
		fmt.Fprintf(os.Stderr, "aggrate: injected crash after %d specs\n", f.KillAfterSpecs)
		crashFn()
	}
}

// FaultsFromEnv reads the AGGRATE_FAULT_* variables:
//
//	AGGRATE_FAULT_JOURNAL_FAIL_EVERY=N   fail every Nth journal append
//	AGGRATE_FAULT_JOURNAL_STALL=50ms     sleep before every journal append
//	AGGRATE_FAULT_KILL_AFTER_SPECS=N     exit(137) after N spec completions
//
// Unset or unparseable variables leave the corresponding fault off.
func FaultsFromEnv() Faults {
	var f Faults
	if v, err := strconv.Atoi(os.Getenv("AGGRATE_FAULT_JOURNAL_FAIL_EVERY")); err == nil && v > 0 {
		f.JournalFailEvery = v
	}
	if d, err := time.ParseDuration(os.Getenv("AGGRATE_FAULT_JOURNAL_STALL")); err == nil && d > 0 {
		f.JournalStall = d
	}
	if v, err := strconv.Atoi(os.Getenv("AGGRATE_FAULT_KILL_AFTER_SPECS")); err == nil && v > 0 {
		f.KillAfterSpecs = v
	}
	return f
}
