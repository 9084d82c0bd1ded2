package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aggrate/internal/experiment"
)

// writeTestJournal builds a journal with a known history: three jobs, a mix
// of completed specs, one job done, one cancelled, one left mid-flight.
// Returns the path and the raw bytes.
func writeTestJournal(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jl := &journal{path: path, faults: &faultState{}, m: newMetrics()}
	if err := jl.compact(nil); err != nil { // creates the empty file + opens for append
		t.Fatal(err)
	}
	req := JobRequest{Scenarios: []string{"uniform"}, Ns: []int{60}, Seeds: 2, Seed: 7}
	res := func(n int) *experiment.Result {
		return &experiment.Result{N: n, Colors: 3, Verified: true}
	}
	now := time.Now().UTC()
	for jid := 1; jid <= 3; jid++ {
		id := fmt.Sprintf("j%06d", jid)
		reqCopy := req
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(jl.appendSync(journalRecord{T: "job", Time: now, ID: id, Client: "c", Priority: jid, Req: &reqCopy}))
		for i := 0; i < jid; i++ { // job N has N completed specs
			must(jl.append(journalRecord{T: "spec", Time: now, Job: id, Index: i,
				Key: fmt.Sprintf("key-%d-%d", jid, i), Result: res(60 + i)}))
		}
	}
	must2 := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must2(jl.appendSync(journalRecord{T: "status", Time: now, Job: "j000001", Status: StatusDone}))
	must2(jl.appendSync(journalRecord{T: "status", Time: now, Job: "j000002", Status: StatusCancelled}))
	must2(jl.appendSync(journalRecord{T: "status", Time: now, Job: "j000003", Status: StatusInterrupted}))
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, b
}

// TestJournalReplayFull: the complete journal replays to exactly the history
// that was written.
func TestJournalReplayFull(t *testing.T) {
	path, _ := writeTestJournal(t)
	jobs, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	wantStatus := map[string]string{
		"j000001": StatusDone, "j000002": StatusCancelled, "j000003": StatusInterrupted,
	}
	for n, j := range jobs {
		if j.id != fmt.Sprintf("j%06d", n+1) {
			t.Fatalf("job %d out of order: %s", n, j.id)
		}
		if j.status != wantStatus[j.id] {
			t.Fatalf("%s status %q, want %q", j.id, j.status, wantStatus[j.id])
		}
		if len(j.completed) != n+1 {
			t.Fatalf("%s has %d completed specs, want %d", j.id, len(j.completed), n+1)
		}
		if j.priority != n+1 || j.client != "c" {
			t.Fatalf("%s lost metadata: priority=%d client=%q", j.id, j.priority, j.client)
		}
	}
	// Terminality: done and cancelled are final, interrupted resumes.
	if !jobs[0].terminal() || !jobs[1].terminal() || jobs[2].terminal() {
		t.Fatalf("terminality: done=%v cancelled=%v interrupted=%v",
			jobs[0].terminal(), jobs[1].terminal(), jobs[2].terminal())
	}
}

// TestJournalReplayTruncationProperty: EVERY byte-prefix of a valid journal
// — including prefixes that tear a record mid-line — replays without error
// to a consistent state, and recovered knowledge grows monotonically with
// the prefix: never fewer jobs, never fewer completed specs per job.
func TestJournalReplayTruncationProperty(t *testing.T) {
	_, full := writeTestJournal(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "prefix.ndjson")

	prevJobs := -1
	prevSpecs := map[string]int{}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, err := replayJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: replay error %v", cut, err)
		}
		if len(jobs) < prevJobs {
			t.Fatalf("cut=%d: job count regressed %d -> %d", cut, prevJobs, len(jobs))
		}
		prevJobs = len(jobs)
		for _, j := range jobs {
			// Consistency: every recovered spec has a result, every status is a
			// known state, and the request survived intact.
			for i, sp := range j.completed {
				if sp.res == nil || sp.key == "" {
					t.Fatalf("cut=%d: %s spec %d recovered without result/key", cut, j.id, i)
				}
			}
			switch j.status {
			case StatusQueued, StatusDone, StatusCancelled, StatusInterrupted:
			default:
				t.Fatalf("cut=%d: %s has status %q", cut, j.id, j.status)
			}
			if len(j.req.Scenarios) == 0 {
				t.Fatalf("cut=%d: %s lost its request", cut, j.id)
			}
			if len(j.completed) < prevSpecs[j.id] {
				t.Fatalf("cut=%d: %s spec count regressed %d -> %d",
					cut, j.id, prevSpecs[j.id], len(j.completed))
			}
			prevSpecs[j.id] = len(j.completed)
		}
	}
	// The longest prefix is the full journal: everything must be there.
	if prevJobs != 3 {
		t.Fatalf("full replay found %d jobs, want 3", prevJobs)
	}
}

// TestJournalTornTailIgnoresGarbage: appended garbage (a torn write) ends
// the replay at the last valid line instead of failing it.
func TestJournalTornTailIgnoresGarbage(t *testing.T) {
	path, full := writeTestJournal(t)
	if err := os.WriteFile(path, append(bytes.Clone(full), []byte(`{"t":"spec","job":"j0000`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := replayJournal(path)
	if err != nil || len(jobs) != 3 {
		t.Fatalf("torn tail: jobs=%d err=%v, want 3, nil", len(jobs), err)
	}
}

// TestJournalCompactionDropsTerminal: openJournal rewrites the file down to
// the live jobs; terminal ones are still returned (for cache seeding) but no
// longer occupy disk.
func TestJournalCompactionDropsTerminal(t *testing.T) {
	path, full := writeTestJournal(t)
	jl, replayed, err := openJournal(path, &faultState{}, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	if len(replayed) != 3 {
		t.Fatalf("openJournal returned %d jobs, want all 3", len(replayed))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(full) {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", len(full), len(after))
	}
	// Only the interrupted job survives on disk.
	again, err := replayJournal(path)
	if err != nil || len(again) != 1 || again[0].id != "j000003" {
		t.Fatalf("post-compaction replay: %+v err=%v, want only j000003", again, err)
	}
	if len(again[0].completed) != 3 {
		t.Fatalf("compaction lost completed specs: %d, want 3", len(again[0].completed))
	}
}

// TestJournalReplaysEngineField: a journal written before the verify_engine
// field left JobRequest still replays. Its job record carries
// "verify_engine":"" (the replay decoder ignores unknown fields), the job
// resumes from its journaled spec, and the spec key it was journaled under
// is the key the resumed grid computes, so no cached key moved.
func TestJournalReplaysEngineField(t *testing.T) {
	const parentKey = "b7e8bd0df18d268045934918cbbfaf54"
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	lines := `{"t":"job","time":"2026-10-18T03:07:27.864866408Z","id":"j000001","client":"anonymous","req":{"scenarios":["uniform"],"ns":[60],"seeds":2,"seed":7,"powers":null,"algos":null,"graph":"","gamma":0,"delta":0,"alpha":0,"beta":0,"noise":0,"verify":null,"verify_engine":"","priority":0,"timeout_sec":0}}
{"t":"spec","time":"2026-10-18T03:07:27.867165985Z","job":"j000001","key":"` + parentKey + `","result":{"scenario":"uniform","n":60,"seed":7,"power":"mean","graph":"obl","algo":"greedy","colors":8,"margin":1.7276143848529664,"verified":true}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, JournalPath: path})
	st := waitStatus(t, ts, "j000001", StatusDone, 30*time.Second)
	if !st.Resumed || st.Replayed != 1 || st.Completed != 2 {
		t.Fatalf("resumed=%t replayed=%d completed=%d, want true/1/2", st.Resumed, st.Replayed, st.Completed)
	}
	if len(st.Results) != 2 {
		t.Fatalf("%d results, want 2", len(st.Results))
	}
	for _, it := range st.Results {
		if it.Index == 0 && (it.SpecKey != parentKey || it.Source != SourceJournal) {
			t.Fatalf("spec 0: key %s source %q, want the journaled %s from the journal", it.SpecKey, it.Source, parentKey)
		}
		if it.Result == nil || !it.Result.Verified || it.Result.Err != "" {
			t.Fatalf("spec %d: result %+v", it.Index, it.Result)
		}
	}
}
